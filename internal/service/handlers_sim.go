package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/obs"
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
	// One run's snapshots are sparse (bounded by MaxSimSnapshots), so each
	// of its lines flushes. A co-exploration streams ~20 snapshots for each
	// of dozens of replays; a replay is its unit of liveness, so only its
	// score lines flush (the first and the terminal line always do).
	flushes := func(int, any) bool { return true }
	if req.CoExplore {
		flushes = func(_ int, ev any) bool {
			sev, ok := ev.(api.SimEvent)
			return ok && sev.Score != nil
		}
	}
	s.stream(w, r, key, flushes, s.met.simStreams, s.met.simCancelled, func(ctx context.Context, emit func(any) bool) (any, error) {
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
// and returning the terminal Done event. Snapshot events go to emit as
// pre-encoded lines (appendSnapshotLine) in one buffer that each snapshot
// reuses, so emit must write a line before it returns.
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
	var line []byte
	emitSnapshot := func(org int, policy string, sn sim.Snapshot) bool {
		ws := wireSnapshot(org, policy, sn)
		line = appendSnapshotLine(line[:0], &ws)
		return emit(line)
	}

	if req.CoExplore {
		bb := s.bbOptions(req.Options)
		cfg := sim.CoExploreConfig{
			Mix:           mix,
			Estimator:     estimator,
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
			snap = emitSnapshot
			score = func(sc sim.OrgScore) bool {
				return emit(api.SimEvent{Score: wireScore(names, sc)})
			}
		}
		fv, err := s.coexploreFront(ctx, dev, req, specs, bb)
		if err != nil {
			return nil, err
		}
		scores, err := sim.ScoreFront(ctx, fv.Platforms, specs, fv.Front, cfg, snap, score)
		if err != nil {
			return nil, err
		}
		done := &api.SimDone{
			Scores:        make([]api.SimScore, len(scores)),
			FrontSize:     len(fv.Front),
			OrgsTruncated: len(fv.Front) > sim.DefaultMaxOrgs,
		}
		for i, sc := range scores {
			done.Scores[i] = *wireScore(names, sc)
		}
		st := wireStats(fv.Stats)
		st.FrontSize = len(fv.Front)
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
		visit = func(sn sim.Snapshot) bool { return emitSnapshot(0, pol.Name(), sn) }
	}
	res, err := sim.Run(ctx, sim.Config{
		Platform: plat, Policy: pol, Estimator: estimator, SnapshotEvery: snapEvery,
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

// coexFront is a co-exploration's cached front: the exact Pareto front, the
// platforms realizing its scored organizations (sim.BuildFront) and the
// explorer statistics. The cache holds it decoded, and every co-exploration
// of its module set shares it: sim.ScoreFront, sim.Run and wireScore only
// read it (Platform.PRRs, PRM.Compat, DesignPoint.Groups), and must keep
// to that.
type coexFront struct {
	Front     []dse.DesignPoint
	Platforms []sim.Platform
	Stats     dse.BBStats
}

// coexploreFront returns a co-exploration's front through the response
// cache, so co-explorations of one module set explore it and build its
// platforms once whatever their mix. The key keeps the PRMs in request
// order, unlike explore's canonical key: the mix draws PRMs by position, and
// a front priced in another order may list its organizations differently.
// Like drainable, the explore runs under the drain context, since coalesced
// followers and later hits outlive the request that started it. The entry
// counts the length of the front's JSON encoding against the cache's byte
// bound, as when the cache held that encoding.
func (s *Server) coexploreFront(ctx context.Context, dev *device.Device, req *api.SimulateRequest,
	specs []sim.Spec, opts dse.BBOptions) (*coexFront, error) {

	ctx, span := obs.StartSpan(ctx, "service.coexplore_front")
	defer span.End()
	key := api.CanonicalKey("coexplore-front", &struct {
		Device     string             `json:"device"`
		PRMs       []api.PRM          `json:"prms,omitempty"`
		SyntheticN int                `json:"synthetic_n,omitempty"`
		Options    api.ExploreOptions `json:"options"`
	}{dev.Name, req.PRMs, req.SyntheticN, req.Options})
	v, hit, err := s.lookup("coexplore-front", key, func() (any, int, error) {
		// The leader's explore joins its trace under this span.
		run := obs.ContextWithTrace(obs.WithTracer(s.drainCtx, obs.TracerFrom(ctx)), span.Context())
		prms := make([]dse.PRM, len(specs))
		for i, sp := range specs {
			prms[i] = dse.PRM{Name: sp.Name, Req: sp.Req}
		}
		e := &dse.Explorer{Device: dev, Estimator: estimator}
		front, stats, err := e.ExploreParetoBB(run, prms, opts)
		if err != nil {
			return nil, 0, err
		}
		plats, err := sim.BuildFront(dev, specs, front)
		if err != nil {
			return nil, 0, err
		}
		fv := &coexFront{front, plats, stats}
		raw, err := json.Marshal(fv)
		return fv, len(raw), err
	})
	span.SetAttr("cache", cacheState(hit))
	if err != nil {
		return nil, err
	}
	return v.(*coexFront), nil
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

func wireSnapshot(org int, policy string, sn sim.Snapshot) api.SimSnapshot {
	return api.SimSnapshot{
		Org: org, Policy: policy,
		Seq: sn.Seq, NowNS: sn.NowNS, Submitted: sn.Submitted, Completed: sn.Completed,
		Ready: sn.Ready, Running: sn.Running, Reconfigs: sn.Reconfigs,
		Preemptions: sn.Preemptions, ICAPBusy: sn.ICAPBusy, MeanWaitNS: sn.MeanWaitNS,
	}
}

// appendSnapshotLine appends the NDJSON line that json.Encoder writes for
// api.SimEvent{Snapshot: s}, byte for byte (FuzzSnapshotLine), without
// reflection: snapshots are most of a simulate stream's lines. s.ICAPBusy
// must be finite, as the engine's always is.
func appendSnapshotLine(b []byte, s *api.SimSnapshot) []byte {
	b = append(b, `{"snapshot":{`...)
	if s.Org != 0 {
		b = append(b, `"org":`...)
		b = strconv.AppendInt(b, int64(s.Org), 10)
		b = append(b, ',')
	}
	if s.Policy != "" {
		b = append(b, `"policy":`...)
		b = appendJSONString(b, s.Policy)
		b = append(b, ',')
	}
	b = append(b, `"seq":`...)
	b = strconv.AppendInt(b, int64(s.Seq), 10)
	b = append(b, `,"now_ns":`...)
	b = strconv.AppendInt(b, s.NowNS, 10)
	b = append(b, `,"submitted":`...)
	b = strconv.AppendInt(b, int64(s.Submitted), 10)
	b = append(b, `,"completed":`...)
	b = strconv.AppendInt(b, int64(s.Completed), 10)
	b = append(b, `,"ready":`...)
	b = strconv.AppendInt(b, int64(s.Ready), 10)
	b = append(b, `,"running":`...)
	b = strconv.AppendInt(b, int64(s.Running), 10)
	b = append(b, `,"reconfigs":`...)
	b = strconv.AppendInt(b, s.Reconfigs, 10)
	b = append(b, `,"preemptions":`...)
	b = strconv.AppendInt(b, s.Preemptions, 10)
	b = append(b, `,"icap_busy":`...)
	b = appendJSONFloat(b, s.ICAPBusy)
	b = append(b, `,"mean_wait_ns":`...)
	b = strconv.AppendInt(b, s.MeanWaitNS, 10)
	return append(b, "}}\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: ES6 number
// formatting, with an exponent only below 1e-6 or from 1e21 on, and no
// zero padding in it.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 to e-7
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u escapes, control bytes as their short or
// \u00XX escapes, invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
