package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// span is one timed call of the traced pass. The spans of one request share
// Trace; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	Trace    int                `json:"trace"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent,omitempty"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps the traced pass's spans in memory until the benchmark
// writes them out at exit. The traced pass runs one call at a time, so the
// recorder needs no lock.
type recorder struct {
	epoch  time.Time
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(workload, name string, trace, parent int) int {
	r.spans = append(r.spans, span{
		Workload: workload, Name: name, Trace: trace, ID: len(r.spans) + 1, Parent: parent,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.epoch).Nanoseconds() }

// set adds attributes to a span.
func (r *recorder) set(id int, attrs map[string]float64) {
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64, len(attrs))
	}
	for k, v := range attrs {
		s.Attrs[k] = v
	}
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// layerUnits names every per-layer metric and its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"sim.decide_calls", "count"},
	{"sim.decide_ns", "ns"},
	{"sim.decide_frac", "frac"},
	{"sim.ready_mean", "count"},
	{"sim.ready_max", "count"},
	{"sim.loop_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.replays", "count"},
	{"sim.build_ms", "ms"},
	{"sim.generate_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.reconfigs", "count"},
	{"sim.preemptions", "count"},
	{"sim.best_p99_wait_ms_sim", "ms"},
	{"sim.makespan_ms_sim", "ms"},
	{"dse.explore_ms", "ms"},
	{"dse.expand_ms", "ms"},
	{"dse.pareto_ms", "ms"},
	{"dse.partitions", "count"},
	{"dse.evaluated", "count"},
	{"dse.group_pricings", "count"},
	{"dse.pruned_frac", "frac"},
	{"dse.collapsed_frac", "frac"},
	{"dse.memo_hit_frac", "frac"},
	{"dse.front_size", "count"},
	{"core.estimate_ns", "ns"},
	{"core.estimate_shared_ns", "ns"},
	{"core.size_bytes_ns", "ns"},
	{"floorplan.find_window_ns", "ns"},
	{"core.model_calls", "count"},
	{"service.handler_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.coalesced", "count"},
	{"service.evictions", "count"},
	{"service.shed", "count"},
	{"client.wire_ms", "ms"},
	{"client.resp_bytes", "bytes"},
	{"client.lines", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

// timedPolicy wraps a policy and accounts every Decide call: count, host
// time and the ready-queue length the policy was handed.
type timedPolicy struct {
	sim.Policy
	calls, ns, readySum, readyMax int64
}

func (p *timedPolicy) Decide(v *sim.View) (sim.Action, bool) {
	t0 := time.Now()
	act, ok := p.Policy.Decide(v)
	p.ns += time.Since(t0).Nanoseconds()
	p.calls++
	q := int64(len(v.Ready))
	p.readySum += q
	p.readyMax = max(p.readyMax, q)
	return act, ok
}

// countingBody counts the bytes a response body delivers.
type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// countingTransport records the response bytes of the last request.
type countingTransport struct {
	base  *http.Transport
	bytes int64
}

func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		t.bytes = 0
		resp.Body = countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

// tracer runs the traced pass of one workload: every sampled request four
// ways (over HTTP against a fresh costd, through an in-process handler, as
// the bare library call, and decomposed into its layers) with a span around
// each call. No obs tracer is attached to the library's contexts, so the
// program under test runs exactly as in the timed window.
type tracer struct {
	rec      *recorder
	workload string
	dev      *device.Device
	srv      *service.Server
	cl       *client.Client
	counter  *countingTransport
	// trace is the ID shared by the current request's spans.
	trace int
}

// stage records fn as a span under parent (0 for a root); fn receives the
// span's ID, for attributes and child spans, which stage also returns.
func (t *tracer) stage(name string, parent int, fn func(id int) error) (int, error) {
	id := t.rec.begin(t.workload, name, t.trace, parent)
	err := fn(id)
	t.rec.end(id)
	return id, err
}

// tracePass samples the first sample timed requests of the workload's
// sequence (spread over the clients) and returns each layer metric's median
// over the sampled requests that touch that layer.
func tracePass(ctx context.Context, cfg runConfig, wl workload, seed uint64, rec *recorder) (map[string]metric, error) {
	dev, err := device.Lookup(deviceName)
	if err != nil {
		return nil, err
	}
	// costd's Server.Start switches on obs's heavyweight instrumentation
	// (per-search histograms in floorplan); the in-process ways run with it
	// on too, so they execute what costd executes.
	obs.SetActive(true)
	defer obs.SetActive(false)
	d, err := startCostd(ctx, cfg.costd, wl.costdArgs)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	counter := &countingTransport{base: &http.Transport{}}
	cl := client.New(d.url)
	cl.HTTPClient = &http.Client{Transport: counter}
	cl.MaxRetries = 0
	defer cl.HTTPClient.CloseIdleConnections()
	t := &tracer{
		rec: rec, workload: wl.name, dev: dev, cl: cl, counter: counter,
		srv: service.New(service.Config{Registry: obs.NewRegistry()}),
	}
	// Bring both servers to the state the timed window starts from.
	if err := warmUp(ctx, []*client.Client{cl}, wl, seed); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	var warm []request
	if wl.prewarm != nil {
		warm = wl.prewarm(seed)
	}
	for i := 0; i < wl.warmup; i++ {
		warm = append(warm, wl.next(seed, 0, i))
	}
	for _, req := range warm {
		if _, err := t.handle(req); err != nil {
			return nil, fmt.Errorf("traced pass warm-up: %w", err)
		}
	}

	perClient := max(1, cfg.traceSample/cfg.clients)
	var values []map[string]float64
	for c := 0; c < cfg.clients; c++ {
		for k := 0; k < perClient; k++ {
			v, err := t.request(ctx, wl.next(seed, c, wl.warmup+k))
			if err != nil {
				return nil, fmt.Errorf("traced pass, client %d request %d: %w", c, wl.warmup+k, err)
			}
			values = append(values, v)
		}
	}
	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		var xs []float64
		for _, v := range values {
			if x, ok := v[lu.name]; ok {
				xs = append(xs, x)
			}
		}
		out[lu.name] = metric{Value: median(xs), Unit: lu.unit, N: len(xs)}
	}
	return out, nil
}

// handle runs one request through the in-process server.
func (t *tracer) handle(req request) (*httptest.ResponseRecorder, error) {
	path, payload := "/v1/"+req.kind(), any(req.bitstream)
	switch {
	case req.explore != nil:
		payload = req.explore
	case req.simulate != nil:
		payload = req.simulate
	case req.prr != nil:
		payload = req.prr
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	w := httptest.NewRecorder()
	t.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w, nil
}

// request traces one request and returns its per-layer values.
func (t *tracer) request(ctx context.Context, req request) (map[string]float64, error) {
	t.rec.traces++
	t.trace = t.rec.traces
	var (
		w         *httptest.ResponseRecorder
		bare, dec libResult
		calls     modelCalls
		simEvents = obs.Default().Counter("sim_events_total", "")
	)
	ways := []struct {
		name string
		fn   func(id int) error
	}{
		{"client.request", func(id int) error {
			resp, first, _, err := send(ctx, t.cl, req)
			t.rec.set(id, map[string]float64{
				"first_line_ms": float64(first.Nanoseconds()) / 1e6,
				"lines":         float64(resp.lines),
				"bytes":         float64(t.counter.bytes),
			})
			return err
		}},
		{"service.handler", func(int) (err error) {
			w, err = t.handle(req)
			return err
		}},
		{"lib.call", func(int) (err error) {
			bare, err = t.bare(ctx, req)
			return err
		}},
		{"lib.decomposed", func(id int) (err error) {
			events := simEvents.Value()
			dec, calls, err = t.decomposed(ctx, req, id)
			t.rec.set(id, map[string]float64{
				"sim_events":  float64(simEvents.Value() - events),
				"model_calls": float64(calls.count),
			})
			return err
		}},
	}
	// The order rotates from request to request, so no way is always the
	// one that runs first after costd had the CPU, or right after another
	// way warmed the caches with the same work.
	for k := range ways {
		way := ways[(k+t.trace)%len(ways)]
		if _, err := t.stage(way.name, 0, way.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", way.name, err)
		}
	}
	if k := req.kind(); (k == "explore" || k == "simulate") && !bytes.Contains(w.Body.Bytes(), []byte(`{"done":`)) {
		return nil, fmt.Errorf("in-process %s stream has no done line", k)
	}
	if !reflect.DeepEqual(dec, bare) {
		return nil, fmt.Errorf("the decomposed replay's front or ranking differs from the bare call's")
	}

	// The cost models, per call, on this request's own inputs.
	_, _ = t.stage("core.models", 0, func(id int) error {
		t.rec.set(id, calls.time(t.dev))
		return nil
	})
	return t.values(), nil
}

// libResult is what a library call returned that the bare call and the
// decomposed replay must agree on.
type libResult struct {
	front  []dse.DesignPoint
	scores []sim.OrgScore
}

// bare runs the library call costd's handler makes for the request.
func (t *tracer) bare(ctx context.Context, req request) (libResult, error) {
	var out libResult
	var err error
	e := &dse.Explorer{Device: t.dev, Estimator: serverEstimator}
	switch {
	case req.explore != nil && req.explore.FrontOnly:
		out.front, _, err = e.ExploreParetoBB(ctx, explorePRMs(req.explore), bbOptions(req.explore.Options))
		return out, err
	case req.explore != nil:
		prms := explorePRMs(req.explore)
		var points []dse.DesignPoint
		_, err = e.ExploreBB(ctx, prms, bbOptions(req.explore.Options), func(dp dse.DesignPoint) bool {
			points = append(points, dp)
			return true
		})
		out.front = dse.ExpandSymmetric(prms, dse.Pareto(points))
		return out, err
	case req.simulate != nil && req.simulate.CoExplore:
		specs, _ := simSpecs(req.simulate)
		cfg, err := coExploreConfig(req.simulate)
		if err != nil {
			return out, err
		}
		out.scores, out.front, _, err = sim.CoExplore(ctx, t.dev, specs, cfg, nil, nil)
		return out, err
	case req.simulate != nil:
		_, err = runShared(ctx, t.dev, req.simulate)
		return out, err
	case req.prr != nil:
		return out, estimateBatch(t.dev, req.prr)
	default:
		sizeBatch(t.dev, req.bitstream)
		return out, nil
	}
}

func estimateBatch(dev *device.Device, r *api.PRRRequest) error {
	m := core.NewPRRModel(dev)
	for _, p := range r.PRMs {
		if _, err := m.Estimate(p.Req.Core()); err != nil {
			return err
		}
	}
	return nil
}

func sizeBatch(dev *device.Device, r *api.BitstreamRequest) {
	bit := core.NewBitstreamModel(dev.Params)
	for _, item := range r.Items {
		org := item.Core()
		_ = bit.SizeWords(org) + bit.ConfigWordsPerRow(org) + bit.BRAMInitWordsPerRow(org)
		serverEstimator.Estimate(bit.SizeBytes(org))
	}
}

// decomposed replays the bare call stage by stage under child spans of
// parent and returns its result and the request's cost-model calls. A
// co-exploration is replayed as ExploreParetoBB, Mix.Generate, then
// BuildGroups and Run per (organization, policy) with each policy timed.
func (t *tracer) decomposed(ctx context.Context, req request, parent int) (libResult, modelCalls, error) {
	var out libResult
	var calls modelCalls
	stage := func(name string, fn func() error) (int, error) {
		return t.stage(name, parent, func(int) error { return fn() })
	}
	e := &dse.Explorer{Device: t.dev, Estimator: serverEstimator}
	switch {
	case req.explore != nil:
		prms, opts := explorePRMs(req.explore), bbOptions(req.explore.Options)
		var points []dse.DesignPoint
		var stats dse.BBStats
		id, err := stage("dse.explore", func() (err error) {
			if req.explore.FrontOnly {
				out.front, stats, err = e.ExploreParetoBB(ctx, prms, opts)
				return err
			}
			stats, err = e.ExploreBB(ctx, prms, opts, func(dp dse.DesignPoint) bool {
				points = append(points, dp)
				return true
			})
			return err
		})
		if err != nil {
			return out, calls, err
		}
		if !req.explore.FrontOnly {
			stage("dse.pareto", func() error { out.front = dse.Pareto(points); return nil })
			stage("dse.expand", func() error { out.front = dse.ExpandSymmetric(prms, out.front); return nil })
		}
		stats.FrontSize = len(out.front)
		t.setBBStats(id, stats)
		calls.count = stats.GroupPricings - stats.MemoHits
		calls.addFront(t.dev, prms, out.front)
		return out, calls, nil

	case req.simulate != nil && req.simulate.CoExplore:
		specs, _ := simSpecs(req.simulate)
		cfg, err := coExploreConfig(req.simulate)
		if err != nil {
			return out, calls, err
		}
		prms := make([]dse.PRM, len(specs))
		for i, sp := range specs {
			prms[i] = dse.PRM{Name: sp.Name, Req: sp.Req}
		}
		var stats dse.BBStats
		id, err := stage("dse.explore", func() (err error) {
			out.front, stats, err = e.ExploreParetoBB(ctx, prms, cfg.BB)
			return err
		})
		if err != nil {
			return out, calls, err
		}
		t.setBBStats(id, stats)
		var jobs []sim.Job
		if _, err := stage("sim.generate", func() (err error) {
			jobs, err = cfg.Mix.Generate(len(specs))
			return err
		}); err != nil {
			return out, calls, err
		}
		for oi, dp := range out.front {
			if oi >= sim.DefaultMaxOrgs {
				break
			}
			if !dp.Feasible {
				continue
			}
			var plat sim.Platform
			if _, err := stage("sim.build", func() (err error) {
				plat, err = sim.BuildGroups(t.dev, specs, dp.Groups)
				return err
			}); err != nil {
				return out, calls, err
			}
			for _, pol := range cfg.Policies {
				res, err := t.run(ctx, parent, plat, pol, jobs)
				if err != nil {
					return out, calls, err
				}
				out.scores = append(out.scores, sim.OrgScore{Org: oi, Groups: dp.Groups, Policy: pol.Name(), Result: res})
			}
		}
		stage("sim.rank", func() error { sim.RankByP99(out.scores); return nil })
		calls.count = stats.GroupPricings - stats.MemoHits
		calls.addFront(t.dev, prms, out.front)
		return out, calls, nil

	case req.simulate != nil:
		specs, _ := simSpecs(req.simulate)
		var plat sim.Platform
		var jobs []sim.Job
		var pol sim.Policy
		if _, err := stage("sim.build", func() (err error) {
			plat, pol, err = sharedPlatform(t.dev, req.simulate, specs)
			return err
		}); err != nil {
			return out, calls, err
		}
		if _, err := stage("sim.generate", func() (err error) {
			jobs, err = simMix(req.simulate.Mix).Generate(len(specs))
			return err
		}); err != nil {
			return out, calls, err
		}
		if _, err := t.run(ctx, parent, plat, pol, jobs); err != nil {
			return out, calls, err
		}
		calls.addShared(t.dev, specs)
		return out, calls, nil

	case req.prr != nil:
		_, err := stage("core.estimate", func() error { return estimateBatch(t.dev, req.prr) })
		for _, p := range req.prr.PRMs {
			calls.reqs = append(calls.reqs, p.Req.Core())
		}
		calls.count = int64(len(req.prr.PRMs))
		return out, calls, err

	default:
		stage("core.size_bytes", func() error { sizeBatch(t.dev, req.bitstream); return nil })
		for _, item := range req.bitstream.Items {
			calls.orgs = append(calls.orgs, item.Core())
		}
		calls.count = int64(len(req.bitstream.Items))
		return out, calls, nil
	}
}

// run replays one simulation under a sim.run span with the policy timed.
func (t *tracer) run(ctx context.Context, parent int, plat sim.Platform, pol sim.Policy, jobs []sim.Job) (sim.Result, error) {
	tp := &timedPolicy{Policy: pol}
	var res sim.Result
	id, err := t.stage("sim.run", parent, func(int) (err error) {
		res, err = sim.Run(ctx, sim.Config{Platform: plat, Policy: tp, Estimator: serverEstimator}, jobs, nil)
		return err
	})
	if err != nil {
		return res, err
	}
	t.rec.set(id, map[string]float64{
		"decide_calls": float64(tp.calls), "decide_ns": float64(tp.ns),
		"ready_sum": float64(tp.readySum), "ready_max": float64(tp.readyMax),
		"reconfigs": float64(res.Reconfigs), "preemptions": float64(res.Preemptions),
		"p99_wait_ns": float64(res.P99WaitNS), "makespan_ns": float64(res.MakespanNS),
	})
	return res, nil
}

func (t *tracer) setBBStats(id int, st dse.BBStats) {
	t.rec.set(id, map[string]float64{
		"partitions": float64(st.Partitions), "evaluated": float64(st.Evaluated),
		"pruned": float64(st.PrunedFit + st.PrunedDominated), "collapsed": float64(st.CollapsedSymmetry),
		"group_pricings": float64(st.GroupPricings), "memo_hits": float64(st.MemoHits),
		"memo_misses": float64(st.MemoMisses), "front_size": float64(st.FrontSize),
	})
}

// values derives the current request's per-layer values from its spans. A
// value is present only when the request touched the layer.
func (t *tracer) values() map[string]float64 {
	// The request's spans are the newest; the roots are the four ways plus
	// core.models, and every other span is a stage under lib.decomposed.
	byName := map[string]*span{}
	var children []*span
	for i := len(t.rec.spans) - 1; i >= 0 && t.rec.spans[i].Trace == t.trace; i-- {
		if s := &t.rec.spans[i]; s.Parent == 0 {
			byName[s.Name] = s
		} else {
			children = append(children, s)
		}
	}
	dec := byName["lib.decomposed"]
	hs, handler, lib := byName["client.request"], byName["service.handler"], byName["lib.call"]
	v := map[string]float64{
		"client.wire_ms":      hs.ms() - handler.ms(),
		"client.resp_bytes":   hs.Attrs["bytes"],
		"client.lines":        hs.Attrs["lines"],
		"service.handler_ms":  handler.ms(),
		"service.self_ms":     handler.ms() - lib.ms(),
		"core.model_calls":    dec.Attrs["model_calls"],
		"trace.overhead_frac": (dec.ms() - lib.ms()) / lib.ms(),
	}
	for k, ns := range byName["core.models"].Attrs {
		v[k] = ns
	}

	layers := 0.0
	stageMS := map[string]float64{}
	var runs []*span
	for _, s := range children {
		layers += s.ms()
		stageMS[s.Name] += s.ms()
		switch s.Name {
		case "sim.run":
			runs = append(runs, s)
		case "dse.explore":
			a := s.Attrs
			v["dse.partitions"] = a["partitions"]
			v["dse.evaluated"] = a["evaluated"]
			v["dse.group_pricings"] = a["group_pricings"]
			v["dse.pruned_frac"] = a["pruned"] / a["partitions"]
			v["dse.collapsed_frac"] = a["collapsed"] / a["partitions"]
			v["dse.memo_hit_frac"] = 0
			if n := a["memo_hits"] + a["memo_misses"]; n > 0 {
				v["dse.memo_hit_frac"] = a["memo_hits"] / n
			}
			v["dse.front_size"] = a["front_size"]
			v["dse.pareto_ms"], v["dse.expand_ms"] = 0, 0
		}
	}
	for name, ms := range stageMS {
		switch name {
		case "dse.explore", "dse.pareto", "dse.expand", "sim.build", "sim.generate", "sim.run":
			v[name+"_ms"] = ms
		}
	}
	v["trace.coverage_frac"] = (v["client.wire_ms"] + v["service.self_ms"] + layers) / hs.ms()

	if len(runs) > 0 {
		var calls, decideNS, runNS, ready, readyMax, reconfigs, preemptions float64
		best := runs[0]
		for _, s := range runs {
			a := s.Attrs
			calls += a["decide_calls"]
			decideNS += a["decide_ns"]
			runNS += float64(s.End - s.Start)
			ready += a["ready_sum"]
			readyMax = max(readyMax, a["ready_max"])
			reconfigs += a["reconfigs"]
			preemptions += a["preemptions"]
			if a["p99_wait_ns"] < best.Attrs["p99_wait_ns"] {
				best = s
			}
		}
		v["sim.decide_calls"] = calls
		v["sim.decide_ns"] = decideNS / max(calls, 1)
		v["sim.decide_frac"] = decideNS / runNS
		v["sim.ready_mean"] = ready / max(calls, 1)
		v["sim.ready_max"] = readyMax
		v["sim.loop_ms"] = (runNS - decideNS) / 1e6
		v["sim.replays"] = float64(len(runs))
		v["sim.events"] = dec.Attrs["sim_events"]
		v["sim.events_per_s"] = dec.Attrs["sim_events"] / (runNS / 1e9)
		v["sim.reconfigs"] = reconfigs
		v["sim.preemptions"] = preemptions
		v["sim.best_p99_wait_ms_sim"] = best.Attrs["p99_wait_ns"] / 1e6
		v["sim.makespan_ms_sim"] = best.Attrs["makespan_ns"] / 1e6
	}
	return v
}

// modelCalls is one request's cost-model calls, replayed for per-call
// timings: every priced group (its members' Estimate calls, its
// EstimateShared, the FindWindow of its merged organization and that
// organization's SizeBytes, all against the regions placed before it), plus
// a batch's standalone Estimate and SizeBytes calls.
type modelCalls struct {
	groups []pricedGroup
	reqs   []core.Requirements
	orgs   []core.Organization
	// count is the number of cost-model evaluations the request made.
	count int64
}

type pricedGroup struct {
	reqs  []core.Requirements
	avoid []floorplan.Region
	org   core.Organization
}

// addFront records the groups that price each front point, in order, each
// avoiding the regions placed before it.
func (mc *modelCalls) addFront(dev *device.Device, prms []dse.PRM, front []dse.DesignPoint) {
	for _, dp := range front {
		var placed []floorplan.Region
		for _, g := range dp.Groups {
			reqs := make([]core.Requirements, len(g))
			for i, idx := range g {
				reqs[i] = prms[idx].Req
			}
			avoid := placed[:len(placed):len(placed)]
			sr, err := (&core.PRRModel{Device: dev, Avoid: avoid}).EstimateShared(reqs)
			if err != nil {
				break
			}
			mc.groups = append(mc.groups, pricedGroup{reqs: reqs, avoid: avoid, org: sr.Org})
			placed = append(avoid, sr.Org.Region)
		}
	}
}

// addShared records the group that sizes a shared platform's merged PRR.
func (mc *modelCalls) addShared(dev *device.Device, specs []sim.Spec) {
	reqs := make([]core.Requirements, len(specs))
	for i, sp := range specs {
		reqs[i] = sp.Req
	}
	if sr, err := core.NewPRRModel(dev).EstimateShared(reqs); err == nil {
		mc.groups = append(mc.groups, pricedGroup{reqs: reqs, org: sr.Org})
		mc.count += int64(len(reqs))
	}
}

// time returns each kind of call's mean host time in ns per call, keyed by
// its layer metric.
func (mc *modelCalls) time(dev *device.Device) map[string]float64 {
	out := map[string]float64{}
	model := func(avoid []floorplan.Region) *core.PRRModel { return &core.PRRModel{Device: dev, Avoid: avoid} }
	bit := core.NewBitstreamModel(dev.Params)
	estimates, sizes := len(mc.reqs), len(mc.orgs)
	for _, g := range mc.groups {
		estimates += len(g.reqs)
		sizes++
	}
	if estimates > 0 {
		out["core.estimate_ns"] = perCall(estimates, func() {
			for _, r := range mc.reqs {
				_, _ = model(nil).Estimate(r)
			}
			for _, g := range mc.groups {
				for _, r := range g.reqs {
					_, _ = model(g.avoid).Estimate(r)
				}
			}
		})
	}
	if n := len(mc.groups); n > 0 {
		out["core.estimate_shared_ns"] = perCall(n, func() {
			for _, g := range mc.groups {
				_, _ = model(g.avoid).EstimateShared(g.reqs)
			}
		})
		out["floorplan.find_window_ns"] = perCall(n, func() {
			for _, g := range mc.groups {
				floorplan.FindWindow(&dev.Fabric, g.org.H, g.org.Need(), g.avoid...)
			}
		})
	}
	if sizes > 0 {
		out["core.size_bytes_ns"] = perCall(sizes, func() {
			for _, org := range mc.orgs {
				bit.SizeBytes(org)
			}
			for _, g := range mc.groups {
				bit.SizeBytes(g.org)
			}
		})
	}
	return out
}

// perCall repeats a batch of n calls until at least a millisecond has
// passed and returns the mean ns per call.
func perCall(n int, batch func()) float64 {
	t0 := time.Now()
	for reps := 1; ; reps++ {
		batch()
		if el := time.Since(t0); el >= time.Millisecond {
			return float64(el.Nanoseconds()) / float64(reps*n)
		}
	}
}
