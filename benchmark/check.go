package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// serverEstimator is costd's default reconfiguration-time estimator.
var serverEstimator = icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}

// checker recomputes requests in-process with the library calls costd makes
// and compares costd's replies with them field for field.
type checker struct {
	dev *device.Device
}

func newChecker() (*checker, error) {
	dev, err := device.Lookup(deviceName)
	if err != nil {
		return nil, err
	}
	return &checker{dev: dev}, nil
}

// check returns an error describing the first field where resp differs from
// the in-process result for req.
func (ck *checker) check(ctx context.Context, req request, resp response) error {
	switch {
	case req.explore != nil:
		return ck.checkExplore(ctx, req.explore, resp)
	case req.simulate != nil && req.simulate.CoExplore:
		return ck.checkCoExplore(ctx, req.simulate, resp)
	case req.simulate != nil:
		return ck.checkSim(ctx, req.simulate, resp)
	case req.prr != nil:
		if resp.prr == nil {
			return fmt.Errorf("prr: no response body")
		}
		for i, res := range resp.prr.Results {
			if !res.OK {
				return fmt.Errorf("prr: item %d failed: %s", i, res.Error)
			}
		}
		return same("prr response", *resp.prr, prrResponse(ck.dev, req.prr))
	default:
		if resp.bit == nil {
			return fmt.Errorf("bitstream: no response body")
		}
		for i, res := range resp.bit.Results {
			if !res.OK {
				return fmt.Errorf("bitstream: item %d failed: %s", i, res.Error)
			}
		}
		return same("bitstream response", *resp.bit, bitstreamResponse(ck.dev, req.bitstream))
	}
}

// checkExplore compares the Done front with ExploreParetoBB on the
// canonicalized PRMs and, for streams, the Point line count with the
// engine's evaluated count.
func (ck *checker) checkExplore(ctx context.Context, r *api.ExploreRequest, resp response) error {
	if resp.explore == nil {
		return fmt.Errorf("explore: no done event")
	}
	if !r.FrontOnly && int64(resp.points) != resp.explore.Stats.Evaluated {
		return fmt.Errorf("explore: stream carried %d points, stats.evaluated = %d", resp.points, resp.explore.Stats.Evaluated)
	}
	prms := explorePRMs(r)
	front, _, err := (&dse.Explorer{Device: ck.dev, Estimator: serverEstimator}).ExploreParetoBB(ctx, prms, bbOptions(r.Options))
	if err != nil {
		return fmt.Errorf("explore: in-process ExploreParetoBB: %w", err)
	}
	want := make([]api.DesignPoint, len(front))
	for i, dp := range front {
		want[i] = wirePoint(prms, dp)
	}
	return same("explore front", resp.explore.Front, want)
}

// checkCoExplore compares the ranked scores with CoExplore at Workers: 1 and
// requires every scored run to complete its whole mix.
func (ck *checker) checkCoExplore(ctx context.Context, r *api.SimulateRequest, resp response) error {
	if resp.sim == nil {
		return fmt.Errorf("co-exploration: no done event")
	}
	specs, names := simSpecs(r)
	cfg, err := coExploreConfig(r)
	if err != nil {
		return err
	}
	cfg.Workers = 1
	scores, _, _, err := sim.CoExplore(ctx, ck.dev, specs, cfg, nil, nil)
	if err != nil {
		return fmt.Errorf("co-exploration: in-process CoExplore: %w", err)
	}
	want := make([]api.SimScore, len(scores))
	for i, sc := range scores {
		want[i] = wireScore(names, sc)
	}
	for i, sc := range resp.sim.Scores {
		if sc.Metrics.Completed != sc.Metrics.Jobs {
			return fmt.Errorf("co-exploration: score %d completed %d of %d jobs", i, sc.Metrics.Completed, sc.Metrics.Jobs)
		}
	}
	return same("co-exploration scores", resp.sim.Scores, want)
}

// checkSim compares a single shared-platform run with sim.Run on
// BuildShared.
func (ck *checker) checkSim(ctx context.Context, r *api.SimulateRequest, resp response) error {
	if resp.sim == nil || resp.sim.Metrics == nil {
		return fmt.Errorf("simulate: no done metrics")
	}
	res, err := runShared(ctx, ck.dev, r)
	if err != nil {
		return fmt.Errorf("simulate: in-process run: %w", err)
	}
	if res.Completed != res.Jobs {
		return fmt.Errorf("simulate: completed %d of %d jobs", res.Completed, res.Jobs)
	}
	if err := same("simulate metrics", *resp.sim.Metrics, wireMetrics(res)); err != nil {
		return err
	}
	slots := make([]api.SimSlot, len(res.PerSlot))
	for i, sl := range res.PerSlot {
		slots[i] = api.SimSlot{Name: sl.Name, BusyNS: sl.BusyNS, Reconfigs: sl.Reconfigs, ICAPNS: sl.ICAPNS}
	}
	return same("simulate per-slot stats", resp.sim.PerSlot, slots)
}

// same reports the first difference between got and want. Slices are
// compared element by element so the message names the index.
func same[T any](what string, got, want T) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	if g.Kind() == reflect.Slice {
		if g.Len() != w.Len() {
			return fmt.Errorf("%s: %d elements, want %d", what, g.Len(), w.Len())
		}
		for i := 0; i < g.Len(); i++ {
			if !reflect.DeepEqual(g.Index(i).Interface(), w.Index(i).Interface()) {
				return fmt.Errorf("%s[%d]: got %+v, want %+v", what, i, g.Index(i).Interface(), w.Index(i).Interface())
			}
		}
	}
	return fmt.Errorf("%s: got %+v, want %+v", what, got, want)
}

// The helpers below map wire requests onto library calls and library
// results onto wire replies the way costd's handlers do, so the checker and
// the traced pass run exactly what the server runs.

// explorePRMs resolves an explore request's PRMs in canonical order.
func explorePRMs(r *api.ExploreRequest) []dse.PRM {
	req := r.Canonicalized()
	if req.SyntheticN > 0 {
		return dse.SyntheticPRMs(req.SyntheticN)
	}
	prms := make([]dse.PRM, len(req.PRMs))
	for i, p := range req.PRMs {
		prms[i] = dse.PRM{Name: p.Name, Req: p.Req.Core()}
	}
	return prms
}

// bbOptions maps wire explore options onto engine options.
func bbOptions(o api.ExploreOptions) dse.BBOptions {
	opts := dse.BBOptions{
		Workers:         o.Workers,
		DominancePrune:  !o.DisableDominancePrune,
		DisableFitPrune: o.DisableFitPrune,
	}
	if o.Symmetry == "off" {
		opts.Symmetry = dse.SymmetryOff
	}
	if o.Memo == "off" {
		opts.Memo = dse.MemoOff
	}
	return opts
}

// simSpecs resolves a simulate request's module set and the names its group
// lists use.
func simSpecs(r *api.SimulateRequest) ([]sim.Spec, []string) {
	var specs []sim.Spec
	if r.SyntheticN > 0 {
		for _, p := range dse.SyntheticPRMs(r.SyntheticN) {
			specs = append(specs, sim.Spec{Name: p.Name, Req: p.Req})
		}
	} else {
		for i, p := range r.PRMs {
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

func simMix(m api.SimMix) sim.Mix {
	return sim.Mix{
		Jobs:           m.Jobs,
		Seed:           m.Seed,
		Arrival:        sim.Arrival(m.Arrival),
		MeanGap:        time.Duration(m.MeanGapUS) * time.Microsecond,
		MeanExec:       time.Duration(m.MeanExecUS) * time.Microsecond,
		Burst:          m.Burst,
		Weights:        m.Weights,
		PriorityLevels: m.PriorityLevels,
	}
}

// coExploreConfig is the configuration costd runs a co-exploration request
// with, callbacks aside.
func coExploreConfig(r *api.SimulateRequest) (sim.CoExploreConfig, error) {
	bb := bbOptions(r.Options)
	cfg := sim.CoExploreConfig{Mix: simMix(r.Mix), Estimator: serverEstimator, BB: bb, Workers: bb.Workers}
	names := r.Policies
	if len(names) == 0 {
		names = sim.PolicyNames()
	}
	for _, name := range names {
		p, err := sim.PolicyByName(name)
		if err != nil {
			return cfg, err
		}
		cfg.Policies = append(cfg.Policies, p)
	}
	return cfg, nil
}

// sharedPlatform builds a single-mode simulation's shared platform and
// resolves its policy.
func sharedPlatform(dev *device.Device, r *api.SimulateRequest, specs []sim.Spec) (sim.Platform, sim.Policy, error) {
	slots := r.Slots
	if slots == 0 {
		slots = 2
	}
	plat, err := sim.BuildShared(dev, specs, slots)
	if err != nil {
		return plat, nil, fmt.Errorf("simulate: BuildShared: %w", err)
	}
	pol, err := sim.PolicyByName(r.Policy)
	return plat, pol, err
}

// runShared runs a single-mode simulation request in-process.
func runShared(ctx context.Context, dev *device.Device, r *api.SimulateRequest) (sim.Result, error) {
	specs, _ := simSpecs(r)
	plat, pol, err := sharedPlatform(dev, r, specs)
	if err != nil {
		return sim.Result{}, err
	}
	jobs, err := simMix(r.Mix).Generate(len(specs))
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(ctx, sim.Config{Platform: plat, Policy: pol, Estimator: serverEstimator}, jobs, nil)
}

func wirePoint(prms []dse.PRM, dp dse.DesignPoint) api.DesignPoint {
	out := api.DesignPoint{
		Groups:              make([][]string, len(dp.Groups)),
		Feasible:            dp.Feasible,
		Infeasibility:       dp.Infeasibility,
		TotalTiles:          dp.TotalTiles,
		MaxBitstreamBytes:   dp.MaxBitstreamBytes,
		TotalBitstreamBytes: dp.TotalBitstreamBytes,
		WorstReconfigNS:     dp.WorstReconfig.Nanoseconds(),
		MinRU:               dp.MinRU,
	}
	for g, members := range dp.Groups {
		out.Groups[g] = make([]string, len(members))
		for i, idx := range members {
			out.Groups[g][i] = prms[idx].Name
		}
	}
	return out
}

func wireMetrics(res sim.Result) api.SimMetrics {
	return api.SimMetrics{
		Policy: res.Policy, Jobs: res.Jobs, Completed: res.Completed,
		MakespanNS: res.MakespanNS, MeanWaitNS: res.MeanWaitNS, P99WaitNS: res.P99WaitNS,
		MaxWaitNS: res.MaxWaitNS, MeanResponseNS: res.MeanResponseNS,
		Reconfigs: res.Reconfigs, Preemptions: res.Preemptions,
		ICAPTransfers: res.ICAPTransfers, ICAPBusy: res.ICAPBusy, Utilization: res.Utilization,
	}
}

func wireScore(names []string, sc sim.OrgScore) api.SimScore {
	out := api.SimScore{Org: sc.Org, Groups: make([][]string, len(sc.Groups)), Metrics: wireMetrics(sc.Result)}
	for g, members := range sc.Groups {
		out.Groups[g] = make([]string, len(members))
		for i, idx := range members {
			out.Groups[g][i] = names[idx]
		}
	}
	return out
}

// prrResponse evaluates a prr batch the way costd does.
func prrResponse(dev *device.Device, r *api.PRRRequest) api.PRRResponse {
	resp := api.PRRResponse{Device: dev.Name, Results: make([]api.PRRResult, len(r.PRMs))}
	m := core.NewPRRModel(dev)
	for i, prm := range r.PRMs {
		out := &resp.Results[i]
		out.Name = prm.Name
		res, err := m.Estimate(prm.Req.Core())
		if err != nil {
			out.Error = err.Error()
			continue
		}
		reg := res.Org.Region
		out.OK = true
		out.Org = &api.Organization{
			H: res.Org.H, WCLB: res.Org.WCLB, WDSP: res.Org.WDSP, WBRAM: res.Org.WBRAM,
			Region: &api.Region{Row: reg.Row, Col: reg.Col, H: reg.H, W: reg.W},
		}
		out.Avail = &api.Availability{
			CLBs: res.Avail.CLBs, FFs: res.Avail.FFs, LUTs: res.Avail.LUTs,
			DSPs: res.Avail.DSPs, BRAMs: res.Avail.BRAMs,
		}
		out.RU = &api.Utilization{CLB: res.RU.CLB, FF: res.RU.FF, LUT: res.RU.LUT, DSP: res.RU.DSP, BRAM: res.RU.BRAM}
		out.SizeTiles = res.Org.Size()
	}
	return resp
}

// bitstreamResponse prices a bitstream batch the way costd does.
func bitstreamResponse(dev *device.Device, r *api.BitstreamRequest) api.BitstreamResponse {
	resp := api.BitstreamResponse{Device: dev.Name, Results: make([]api.BitstreamResult, len(r.Items))}
	bit := core.NewBitstreamModel(dev.Params)
	for i, item := range r.Items {
		out := &resp.Results[i]
		org := item.Core()
		if org.H <= 0 || org.W() <= 0 {
			out.Error = fmt.Sprintf("item %d: organization needs h >= 1 and at least one column", i)
			continue
		}
		out.OK = true
		out.SizeWords = bit.SizeWords(org)
		out.SizeBytes = bit.SizeBytes(org)
		out.ConfigWordsPerRow = bit.ConfigWordsPerRow(org)
		out.BRAMInitWordsPerRow = bit.BRAMInitWordsPerRow(org)
		out.ReconfigNS = serverEstimator.Estimate(out.SizeBytes).Nanoseconds()
	}
	return resp
}
