package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// handleSimulate serves a multitasking simulation as NDJSON: progress
// Snapshot events, Score events per finished co-exploration run, then a
// Done event with the schedule-aware summary. The simulation is a pure
// function of the request (virtual clock, seeded mix), so summary-only
// responses take the cached path; streams follow the request context — a
// disconnect cancels the engine within ~1k events. Both participate in
// graceful drain.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req api.SimulateRequest
	dev, ok := decodeBatch(w, r, &req, func() (string, error) { return req.Device, req.Validate() })
	if !ok {
		return
	}
	specs, names := simSpecs(&req)
	mix, err := simMix(&req, len(specs))
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return
	}
	key := api.CanonicalKey("simulate", &req)

	if req.SummaryOnly {
		s.cached(w, r, "simulate", contentNDJSON, key, func() ([]byte, error) {
			return s.drainable(s.met.simStreams, s.met.simCancelled, func(ctx context.Context) (any, error) {
				done, err := s.runSimulate(ctx, dev, &req, specs, names, mix, nil)
				return api.SimEvent{Done: done}, err
			})
		})
		return
	}
	// Snapshots are sparse (bounded by MaxSimSnapshots), so every event
	// line flushes: clients see liveness for the stream's whole life.
	s.stream(w, r, key, 1, s.met.simStreams, s.met.simCancelled, func(ctx context.Context, emit func(any) bool) (any, error) {
		done, err := s.runSimulate(ctx, dev, &req, specs, names, mix, emit)
		if err != nil {
			// Report an engine error to a still-connected client as the
			// stream's terminal event; stream drops it after a disconnect.
			return api.SimEvent{Error: err.Error()}, err
		}
		return api.SimEvent{Done: done}, nil
	})
}

// runSimulate executes the request — a single shared-platform run or a full
// co-exploration — streaming events through emit (nil suppresses streaming)
// and returning the terminal Done event.
func (s *Server) runSimulate(ctx context.Context, dev *device.Device, req *api.SimulateRequest,
	specs []sim.Spec, names []string, mix sim.Mix, emit func(ev any) bool) (*api.SimDone, error) {

	snapEvery := req.SnapshotEvery
	if snapEvery == 0 {
		// ~20 snapshots per run by default.
		if snapEvery = mix.Jobs / 20; snapEvery == 0 {
			snapEvery = 1
		}
	}
	if emit == nil {
		snapEvery = 0
	}

	if req.CoExplore {
		bb := s.bbOptions(req.Options)
		cfg := sim.CoExploreConfig{
			Mix:           mix,
			Estimator:     s.estimator,
			SnapshotEvery: snapEvery,
			BB:            bb,
			// The same workers knob caps both engines: the branch-and-bound
			// search and the front replay pool. Ranked scores are identical
			// at any worker count.
			Workers: bb.Workers,
		}
		for _, name := range req.Policies {
			p, err := sim.PolicyByName(name)
			if err != nil {
				return nil, err
			}
			cfg.Policies = append(cfg.Policies, p)
		}
		var snap func(org int, policy string, sn sim.Snapshot) bool
		var score func(sim.OrgScore) bool
		if emit != nil {
			snap = func(org int, policy string, sn sim.Snapshot) bool {
				return emit(api.SimEvent{Snapshot: wireSnapshot(org, policy, sn)})
			}
			score = func(sc sim.OrgScore) bool {
				return emit(api.SimEvent{Score: wireScore(names, sc)})
			}
		}
		scores, front, stats, err := sim.CoExplore(ctx, dev, specs, cfg, snap, score)
		if err != nil {
			return nil, err
		}
		done := &api.SimDone{
			Scores:        make([]api.SimScore, len(scores)),
			FrontSize:     len(front),
			OrgsTruncated: len(front) > sim.DefaultMaxOrgs,
		}
		for i, sc := range scores {
			done.Scores[i] = *wireScore(names, sc)
		}
		st := wireStats(stats)
		st.FrontSize = len(front)
		done.Stats = &st
		return done, nil
	}

	slots := req.Slots
	if slots == 0 {
		slots = 2
	}
	plat, err := sim.BuildShared(dev, specs, slots)
	if err != nil {
		return nil, err
	}
	pol, err := sim.PolicyByName(req.Policy)
	if err != nil {
		return nil, err
	}
	jobs, err := mix.Generate(len(specs))
	if err != nil {
		return nil, err
	}
	var visit func(sim.Snapshot) bool
	if emit != nil {
		visit = func(sn sim.Snapshot) bool {
			return emit(api.SimEvent{Snapshot: wireSnapshot(0, pol.Name(), sn)})
		}
	}
	res, err := sim.Run(ctx, sim.Config{
		Platform: plat, Policy: pol, Estimator: s.estimator, SnapshotEvery: snapEvery,
	}, jobs, visit)
	if err != nil {
		return nil, err
	}
	done := &api.SimDone{Metrics: wireMetrics(res), PerSlot: make([]api.SimSlot, len(res.PerSlot))}
	for i, sl := range res.PerSlot {
		done.PerSlot[i] = api.SimSlot{Name: sl.Name, BusyNS: sl.BusyNS, Reconfigs: sl.Reconfigs, ICAPNS: sl.ICAPNS}
	}
	return done, nil
}

// simSpecs resolves the request's module set (explicit PRMs or the
// deterministic synthetic workload) and the PRM names group lists use.
func simSpecs(req *api.SimulateRequest) ([]sim.Spec, []string) {
	var specs []sim.Spec
	if req.SyntheticN > 0 {
		for _, p := range dse.SyntheticPRMs(req.SyntheticN) {
			specs = append(specs, sim.Spec{Name: p.Name, Req: p.Req})
		}
	} else {
		for i, p := range req.PRMs {
			name := p.Name
			if name == "" {
				name = fmt.Sprintf("M%d", i)
			}
			specs = append(specs, sim.Spec{Name: name, Req: p.Req.Core()})
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return specs, names
}

// simMix maps the wire mix onto the generator's form.
func simMix(req *api.SimulateRequest, nPRMs int) (sim.Mix, error) {
	m := sim.Mix{
		Jobs:           req.Mix.Jobs,
		Seed:           req.Mix.Seed,
		Arrival:        sim.Arrival(req.Mix.Arrival),
		MeanGap:        time.Duration(req.Mix.MeanGapUS) * time.Microsecond,
		MeanExec:       time.Duration(req.Mix.MeanExecUS) * time.Microsecond,
		Burst:          req.Mix.Burst,
		Weights:        req.Mix.Weights,
		PriorityLevels: req.Mix.PriorityLevels,
	}
	// Surface generator-level complaints (weight arity and sign, the
	// clock budget) as 400s before any stream starts.
	if err := m.Validate(nPRMs); err != nil {
		return sim.Mix{}, err
	}
	return m, nil
}

func wireSnapshot(org int, policy string, sn sim.Snapshot) *api.SimSnapshot {
	return &api.SimSnapshot{
		Org: org, Policy: policy,
		Seq: sn.Seq, NowNS: sn.NowNS, Submitted: sn.Submitted, Completed: sn.Completed,
		Ready: sn.Ready, Running: sn.Running, Reconfigs: sn.Reconfigs,
		Preemptions: sn.Preemptions, ICAPBusy: sn.ICAPBusy, MeanWaitNS: sn.MeanWaitNS,
	}
}

func wireMetrics(res sim.Result) *api.SimMetrics {
	return &api.SimMetrics{
		Policy: res.Policy, Jobs: res.Jobs, Completed: res.Completed,
		MakespanNS: res.MakespanNS, MeanWaitNS: res.MeanWaitNS, P99WaitNS: res.P99WaitNS,
		MaxWaitNS: res.MaxWaitNS, MeanResponseNS: res.MeanResponseNS,
		Reconfigs: res.Reconfigs, Preemptions: res.Preemptions,
		ICAPTransfers: res.ICAPTransfers, ICAPBusy: res.ICAPBusy, Utilization: res.Utilization,
	}
}

func wireScore(names []string, sc sim.OrgScore) *api.SimScore {
	out := &api.SimScore{Org: sc.Org, Groups: make([][]string, len(sc.Groups)), Metrics: *wireMetrics(sc.Result)}
	for g, members := range sc.Groups {
		gn := make([]string, len(members))
		for i, idx := range members {
			gn[i] = names[idx]
		}
		out.Groups[g] = gn
	}
	return out
}
