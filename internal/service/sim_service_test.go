package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// readSimStream decodes a whole /v1/simulate NDJSON body into its events.
func readSimStream(t *testing.T, raw []byte) (snaps []api.SimSnapshot, scores []api.SimScore, done *api.SimDone) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev api.SimEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("undecodable stream line %q: %v", line, err)
		}
		switch {
		case ev.Error != "":
			t.Fatalf("stream error: %s", ev.Error)
		case ev.Snapshot != nil:
			snaps = append(snaps, *ev.Snapshot)
		case ev.Score != nil:
			scores = append(scores, *ev.Score)
		case ev.Done != nil:
			done = ev.Done
		}
	}
	return snaps, scores, done
}

// TestSimulateStream: a single-platform simulation streams progress snapshots
// and ends with a Done event whose metrics are internally consistent.
func TestSimulateStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","synthetic_n":3,"policy":"reconfig",
		"mix":{"jobs":400,"seed":42,"arrival":"bursty","mean_exec_us":200,"mean_gap_us":50},
		"snapshot_every":50}`
	resp, raw := post(t, ts, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	snaps, _, done := readSimStream(t, raw)
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if len(snaps) == 0 {
		t.Fatal("stream carried no snapshots")
	}
	// Snapshots are monotone in virtual time and sequence.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Seq <= snaps[i-1].Seq || snaps[i].NowNS < snaps[i-1].NowNS {
			t.Errorf("snapshot %d not monotone: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	m := done.Metrics
	if m == nil {
		t.Fatal("single-mode done has no metrics")
	}
	if m.Policy != "reconfig" || m.Jobs != 400 || m.Completed != 400 {
		t.Errorf("metrics %+v, want reconfig completing 400/400", m)
	}
	if m.Reconfigs == 0 || m.ICAPTransfers < m.Reconfigs {
		t.Errorf("metrics report %d reconfigs over %d transfers", m.Reconfigs, m.ICAPTransfers)
	}
	if m.ICAPBusy <= 0 || m.ICAPBusy > 1 || m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("fractions out of range: icap=%g util=%g", m.ICAPBusy, m.Utilization)
	}
	if len(done.PerSlot) != 2 { // default slot count
		t.Errorf("per_slot has %d entries, want 2", len(done.PerSlot))
	}
}

// TestSimulateDeterministicStream: the same request twice yields bit-identical
// NDJSON bodies — the whole simulation is a pure function of the request.
func TestSimulateDeterministicStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","synthetic_n":4,"policy":"priority",
		"mix":{"jobs":500,"seed":7,"arrival":"bursty","priority_levels":3,"mean_exec_us":150},
		"snapshot_every":40}`
	_, raw1 := post(t, ts, "/v1/simulate", body)
	_, raw2 := post(t, ts, "/v1/simulate", body)
	if !bytes.Equal(raw1, raw2) {
		t.Error("identical simulate requests streamed different bytes")
	}
}

// TestSimulateSummaryCached: summary-only responses ride the response cache.
func TestSimulateSummaryCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","synthetic_n":3,"summary_only":true,
		"mix":{"jobs":200,"seed":11,"mean_exec_us":120,"mean_gap_us":30}}`
	r1, raw1 := post(t, ts, "/v1/simulate", body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, raw1)
	}
	if h := r1.Header.Get("X-Cache"); h != "miss" {
		t.Errorf("first summary X-Cache = %q, want miss", h)
	}
	if lines := bytes.Split(bytes.TrimSpace(raw1), []byte("\n")); len(lines) != 1 {
		t.Fatalf("summary-only stream has %d lines, want 1", len(lines))
	}
	r2, raw2 := post(t, ts, "/v1/simulate", body)
	if h := r2.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("second summary X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("cache served a different body")
	}
	if s.met.simStreams.Value() != 1 {
		t.Errorf("sim runs = %d, want 1 (second answered from cache)", s.met.simStreams.Value())
	}
	_, _, done := readSimStream(t, raw1)
	if done == nil || done.Metrics == nil || done.Metrics.Completed != 200 {
		t.Fatalf("summary done = %+v, want 200 completed", done)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"no jobs":                 `{"device":"XC6VLX75T","synthetic_n":3,"mix":{}}`,
		"unknown policy":          `{"device":"XC6VLX75T","synthetic_n":3,"policy":"lifo","mix":{"jobs":10}}`,
		"policies without co":     `{"device":"XC6VLX75T","synthetic_n":3,"policies":["fcfs"],"mix":{"jobs":10}}`,
		"weight arity":            `{"device":"XC6VLX75T","synthetic_n":3,"mix":{"jobs":10,"weights":[1,2]}}`,
		"both workloads":          `{"device":"XC6VLX75T","synthetic_n":3,"prms":[{"req":{"luts":1}}],"mix":{"jobs":10}}`,
		"snapshot flood":          `{"device":"XC6VLX75T","synthetic_n":3,"mix":{"jobs":1000000},"snapshot_every":1}`,
		"co-explore over the cap": `{"device":"XC6VLX75T","synthetic_n":13,"co_explore":true,"mix":{"jobs":10}}`,
		"gap wraps the clock":     `{"device":"XC6VLX75T","synthetic_n":3,"mix":{"jobs":50,"mean_gap_us":1125899906842624}}`,
		"mix over the clock":      `{"device":"XC6VLX75T","synthetic_n":3,"summary_only":true,"mix":{"jobs":1000000,"mean_gap_us":1000}}`,
		"too many workers":        `{"device":"XC6VLX75T","synthetic_n":3,"co_explore":true,"mix":{"jobs":10},"options":{"workers":65}}`,
	} {
		resp, raw := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		}
	}
	// An oversize module passes validation but fails the build with a clear
	// engine error on the stream-less path.
	resp, raw := post(t, ts, "/v1/simulate",
		`{"device":"XC6VLX75T","summary_only":true,"mix":{"jobs":10},"prms":[{"name":"huge","req":{"luts":10000000,"ffs":10000000}}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("oversize module: status %d, want 500: %s", resp.StatusCode, raw)
	}
}

// TestSimulateClientDisconnectCancels: dropping the stream mid-run stops the
// engine within the acceptance budget (< 1s). The mix keeps the platform
// balanced (small ready queue, fast events) but runs a million jobs, so the
// run lasts far longer than the disconnect unless the engine is cancelled.
func TestSimulateClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"device":"XC6VLX75T","synthetic_n":3,
		"mix":{"jobs":1000000,"seed":3,"mean_exec_us":400,"mean_gap_us":300},
		"snapshot_every":100}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	t0 := time.Now()
	cancel()
	resp.Body.Close()

	for s.met.simCancelled.Value() == 0 {
		if time.Since(t0) > time.Second {
			t.Fatal("engine still running 1s after client disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("disconnect observed in %v", time.Since(t0))
}

// TestSimulateCoExploreRanksPaperFront: the acceptance scenario — the paper's
// three PRM signatures duplicated to n = 12 on the paper device, co-explored
// under two policies over the streaming endpoint. The Done event must score
// the branch-and-bound engine's exact Pareto front (every organization, under
// every policy) and rank each policy block by p99 waiting time.
func TestSimulateCoExploreRanksPaperFront(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sigs := []api.Requirements{
		{LUTFFPairs: 1467, LUTs: 1316, FFs: 394, DSPs: 27},           // FIR
		{LUTFFPairs: 3239, LUTs: 2095, FFs: 1860, DSPs: 4, BRAMs: 6}, // MIPS
		{LUTFFPairs: 385, LUTs: 181, FFs: 324},                       // SDRAM
	}
	var prms []api.PRM
	for dup := 0; dup < 4; dup++ {
		for i, sig := range sigs {
			prms = append(prms, api.PRM{Name: fmt.Sprintf("m%d_%d", i, dup), Req: sig})
		}
	}
	req := api.SimulateRequest{
		Device:    testDevice,
		PRMs:      prms,
		CoExplore: true,
		Policies:  []string{"fcfs", "reconfig"},
		Mix: api.SimMix{Jobs: 240, Seed: 9, Arrival: "bursty",
			MeanExecUS: 300, MeanGapUS: 40, PriorityLevels: 3},
		SnapshotEvery: 60,
	}
	body, _ := json.Marshal(&req)
	resp, raw := post(t, ts, "/v1/simulate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	snaps, streamed, done := readSimStream(t, raw)
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if len(snaps) == 0 {
		t.Error("co-exploration streamed no snapshots")
	}

	// The front the service scored is exactly the engine's Pareto front.
	dev, err := device.Lookup(testDevice)
	if err != nil {
		t.Fatal(err)
	}
	var enginePRMs []dse.PRM
	for _, p := range prms {
		enginePRMs = append(enginePRMs, dse.PRM{Name: p.Name, Req: p.Req.Core()})
	}
	e := &dse.Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
	front, _, err := e.ExploreParetoBB(context.Background(), enginePRMs, dse.BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if done.FrontSize != len(front) {
		t.Errorf("served front size %d, engine front has %d", done.FrontSize, len(front))
	}
	if done.OrgsTruncated {
		t.Fatalf("front of %d organizations truncated", done.FrontSize)
	}
	if want := 2 * done.FrontSize; len(done.Scores) != want {
		t.Fatalf("%d scores for %d organizations x 2 policies, want %d",
			len(done.Scores), done.FrontSize, want)
	}
	if len(streamed) != len(done.Scores) {
		t.Errorf("streamed %d score events, done lists %d", len(streamed), len(done.Scores))
	}

	// Every policy covers every organization, ranked by p99 within the policy.
	covered := map[string]map[int]bool{}
	for i, sc := range done.Scores {
		if sc.Metrics.Completed != req.Mix.Jobs {
			t.Errorf("score %d completed %d of %d jobs", i, sc.Metrics.Completed, req.Mix.Jobs)
		}
		if len(sc.Groups) == 0 {
			t.Errorf("score %d has no groups", i)
		}
		if covered[sc.Metrics.Policy] == nil {
			covered[sc.Metrics.Policy] = map[int]bool{}
		}
		covered[sc.Metrics.Policy][sc.Org] = true
		if i > 0 && done.Scores[i-1].Metrics.Policy == sc.Metrics.Policy &&
			done.Scores[i-1].Metrics.P99WaitNS > sc.Metrics.P99WaitNS {
			t.Errorf("scores %d and %d break the p99 ranking within %q", i-1, i, sc.Metrics.Policy)
		}
	}
	for _, pol := range []string{"fcfs", "reconfig"} {
		if len(covered[pol]) != done.FrontSize {
			t.Errorf("policy %q scored %d of %d organizations", pol, len(covered[pol]), done.FrontSize)
		}
	}
	if done.Stats == nil || done.Stats.Partitions == 0 {
		t.Errorf("co-exploration done lacks explorer stats: %+v", done.Stats)
	}
}

// frontPRMs is six PRMs over the paper's three signatures in non-canonical
// order, with a repeated name and an unnamed module.
func frontPRMs() []api.PRM {
	fir := api.Requirements{LUTFFPairs: 1467, LUTs: 1316, FFs: 394, DSPs: 27}
	mips := api.Requirements{LUTFFPairs: 3239, LUTs: 2095, FFs: 1860, DSPs: 4, BRAMs: 6}
	sdram := api.Requirements{LUTFFPairs: 385, LUTs: 181, FFs: 324}
	return []api.PRM{
		{Name: "sdram", Req: sdram}, {Name: "fir", Req: fir}, {Name: "mips", Req: mips},
		{Name: "fir", Req: fir}, {Req: sdram}, {Name: "mips2", Req: mips},
	}
}

// coexploreRequest is a saturated co-exploration of prms at one worker.
func coexploreRequest(prms []api.PRM, seed uint64) *api.SimulateRequest {
	return &api.SimulateRequest{
		Device: testDevice, PRMs: prms, CoExplore: true,
		Mix: api.SimMix{Jobs: 150, Seed: seed, Arrival: "bursty",
			MeanExecUS: 300, MeanGapUS: 60, PriorityLevels: 3},
		SnapshotEvery: 50,
		Options:       api.ExploreOptions{Workers: 1},
	}
}

// postSim posts a simulate request and returns its body, failing on any
// status but 200.
func postSim(t *testing.T, ts *httptest.Server, req *api.SimulateRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts, "/v1/simulate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// directScores is the co-exploration the request asks for, run in process
// by sim.CoExplore with nothing cached, in wire form.
func directScores(t *testing.T, s *Server, req *api.SimulateRequest) []api.SimScore {
	t.Helper()
	dev, err := device.Lookup(req.Device)
	if err != nil {
		t.Fatal(err)
	}
	specs, names := simSpecs(req)
	mix, err := simMix(req, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	bb := s.bbOptions(req.Options)
	cfg := sim.CoExploreConfig{Mix: mix, Estimator: estimator, BB: bb, Workers: bb.Workers}
	for _, name := range req.Policies {
		p, err := sim.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policies = append(cfg.Policies, p)
	}
	scores, _, _, err := sim.CoExplore(context.Background(), dev, specs, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]api.SimScore, len(scores))
	for i, sc := range scores {
		out[i] = *wireScore(names, sc)
	}
	return out
}

// evalCounter counts cache-missed computes per endpoint.
type evalCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *evalCounter) hook(endpoint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[endpoint]++
}

func (c *evalCounter) get(endpoint string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[endpoint]
}

// TestCoExploreFrontSharedAcrossMixes: co-explorations of one module set
// under different mixes explore the front once, and each still scores
// exactly what sim.CoExplore does.
func TestCoExploreFrontSharedAcrossMixes(t *testing.T) {
	var evals evalCounter
	s, ts := newTestServer(t, Config{evalHook: evals.hook})
	var stats []*api.ExploreStats
	for _, seed := range []uint64{1, 2} {
		req := coexploreRequest(frontPRMs(), seed)
		_, _, done := readSimStream(t, postSim(t, ts, req))
		if done == nil {
			t.Fatal("stream ended without a done event")
		}
		if want := directScores(t, s, req); !reflect.DeepEqual(done.Scores, want) {
			t.Errorf("seed %d: served scores differ from sim.CoExplore's", seed)
		}
		stats = append(stats, done.Stats)
	}
	if n := evals.get("coexplore-front"); n != 1 {
		t.Errorf("front explored %d times for two mixes of one module set, want 1", n)
	}
	if s.met.cacheHits.Value() != 1 {
		t.Errorf("cache hits = %d, want 1 (the second front)", s.met.cacheHits.Value())
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("done stats differ between the explored and the cached front: %+v, %+v", stats[0], stats[1])
	}
}

// TestCoExploreFrontCoalesced: k concurrent identical co-exploration streams
// explore the front once. The eval hook holds the leader until every stream
// has missed the cache.
func TestCoExploreFrontCoalesced(t *testing.T) {
	const k = 6
	gate := make(chan struct{})
	var evals atomic.Int64
	s, ts := newTestServer(t, Config{evalHook: func(endpoint string) {
		if endpoint == "coexplore-front" {
			evals.Add(1)
			<-gate
		}
	}})
	body, err := json.Marshal(coexploreRequest(frontPRMs(), 3))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, k)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("stream %d: status %d, read error %v", i, resp.StatusCode, err)
			}
		}(i)
	}
	waitCounter(t, s.met.cacheMisses, k)
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := evals.Load(); n != 1 {
		t.Errorf("front explored %d times for %d identical streams, want 1", n, k)
	}
	if got := s.met.coalesced.Value(); got != k-1 {
		t.Errorf("coalesced %d front lookups, want %d", got, k-1)
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("stream %d differs from stream 0", i)
		}
	}
}

// TestCoExploreFrontKeyKeepsPRMOrder: the mix draws PRMs by position, so a
// permuted module list is a different co-exploration. It gets its own front
// entry, and its scores are sim.CoExplore's on that order.
func TestCoExploreFrontKeyKeepsPRMOrder(t *testing.T) {
	var evals evalCounter
	s, ts := newTestServer(t, Config{evalHook: evals.hook})
	prms := frontPRMs()
	permuted := append(append([]api.PRM{}, prms[3:]...), prms[:3]...)
	for _, list := range [][]api.PRM{prms, permuted} {
		req := coexploreRequest(list, 4)
		_, _, done := readSimStream(t, postSim(t, ts, req))
		if done == nil {
			t.Fatal("stream ended without a done event")
		}
		if want := directScores(t, s, req); !reflect.DeepEqual(done.Scores, want) {
			t.Errorf("PRMs %v: served scores differ from sim.CoExplore's", list)
		}
	}
	if n := evals.get("coexplore-front"); n != 2 {
		t.Errorf("front explored %d times for two PRM orders, want 2", n)
	}
}

// TestCoExploreSummaryNestsFrontLookup: a summary-only co-exploration is a
// cached response whose compute looks its front up in the same cache. The
// nested lookup must neither deadlock nor change the reply, and the cached
// reply must be served on repeat.
func TestCoExploreSummaryNestsFrontLookup(t *testing.T) {
	var evals evalCounter
	s, ts := newTestServer(t, Config{evalHook: evals.hook})
	req := coexploreRequest(frontPRMs(), 5)
	req.SummaryOnly = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	for i, want := range []string{"miss", "hit"} {
		resp, raw := post(t, ts, "/v1/simulate", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if h := resp.Header.Get("X-Cache"); h != want {
			t.Errorf("request %d X-Cache = %q, want %q", i, h, want)
		}
		raws = append(raws, raw)
	}
	if !bytes.Equal(raws[0], raws[1]) {
		t.Error("the cached summary differs from the computed one")
	}
	if evals.get("simulate") != 1 || evals.get("coexplore-front") != 1 {
		t.Errorf("computed %d summaries and %d fronts, want 1 and 1",
			evals.get("simulate"), evals.get("coexplore-front"))
	}
	_, _, done := readSimStream(t, raws[0])
	if done == nil {
		t.Fatal("summary has no done event")
	}
	if want := directScores(t, s, req); !reflect.DeepEqual(done.Scores, want) {
		t.Error("summary scores differ from sim.CoExplore's")
	}
}

// TestCoExploreCacheOffSameReplies: with the response cache off every
// co-exploration explores its own front, and every reply is byte-identical
// to a caching server's.
func TestCoExploreCacheOffSameReplies(t *testing.T) {
	var onEvals, offEvals evalCounter
	_, on := newTestServer(t, Config{evalHook: onEvals.hook})
	_, off := newTestServer(t, Config{CacheEntries: -1, evalHook: offEvals.hook})
	summary := coexploreRequest(frontPRMs(), 6)
	summary.SummaryOnly = true
	reqs := []*api.SimulateRequest{
		coexploreRequest(frontPRMs(), 6), coexploreRequest(frontPRMs(), 7), summary, summary,
	}
	for i, req := range reqs {
		if a, b := postSim(t, on, req), postSim(t, off, req); !bytes.Equal(a, b) {
			t.Errorf("request %d: cache-off reply differs from the cached server's", i)
		}
	}
	if n := onEvals.get("coexplore-front"); n != 1 {
		t.Errorf("caching server explored %d fronts, want 1", n)
	}
	if n := offEvals.get("coexplore-front"); n != len(reqs) {
		t.Errorf("cache-off server explored %d fronts for %d requests, want one each", n, len(reqs))
	}
}

// cachedFronts returns the co-exploration fronts the cache holds.
func cachedFronts(c *lruCache) []*coexFront {
	var out []*coexFront
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			if fv, ok := el.Value.(*lruEntry).val.(*coexFront); ok {
				out = append(out, fv)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// TestCoExploreSharedFrontConcurrent: concurrent co-explorations of one
// module set share the cache's one decoded front. Every reply is
// byte-identical to a cache-off server's, and the front's JSON encoding is
// the same afterwards as before (CI runs this under -race, which reports
// any write to the shared front).
func TestCoExploreSharedFrontConcurrent(t *testing.T) {
	var evals evalCounter
	s, on := newTestServer(t, Config{evalHook: evals.hook})
	_, off := newTestServer(t, Config{CacheEntries: -1})
	var bodies []string
	for seed := uint64(1); seed <= 4; seed++ {
		req := coexploreRequest(frontPRMs(), seed)
		if seed%2 == 0 {
			req.Policies = []string{"reconfig", "fcfs"}
		}
		if seed == 4 {
			req.SummaryOnly = true
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	if resp, raw := post(t, on, "/v1/simulate", bodies[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	fronts := cachedFronts(s.cache)
	if len(fronts) != 1 {
		t.Fatalf("cache holds %d co-exploration fronts, want 1", len(fronts))
	}
	before, err := json.Marshal(fronts[0])
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	got := make([][]byte, rounds*len(bodies))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw, err := tryPost(on, "/v1/simulate", bodies[i%len(bodies)])
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %v, %s", i, err, raw)
				return
			}
			got[i] = raw
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		resp, want := post(t, off, "/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cache-off request %d: status %d: %s", i, resp.StatusCode, want)
		}
		for r := 0; r < rounds; r++ {
			if !bytes.Equal(got[r*len(bodies)+i], want) {
				t.Errorf("request %d, round %d: reply differs from the cache-off server's", i, r)
			}
		}
	}
	after, err := json.Marshal(fronts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("the shared front's JSON changed while co-explorations read it")
	}
	if n := evals.get("coexplore-front"); n != 1 {
		t.Errorf("front explored %d times, want 1", n)
	}
}

// flushRecorder is a ResponseRecorder that notes, at each Flush, how many
// lines the body holds.
type flushRecorder struct {
	*httptest.ResponseRecorder
	at []int
}

func (f *flushRecorder) Flush() {
	f.at = append(f.at, bytes.Count(f.Body.Bytes(), []byte{'\n'}))
	f.ResponseRecorder.Flush()
}

// TestStreamFlushPoints pins where each NDJSON stream flushes, by the
// number of lines sent at each Flush. A co-exploration flushes its first
// line, each score line and the terminal line, since a replay is its unit
// of liveness; a single-platform simulation flushes every line; an explore
// stream flushes line 1, every 256th line and the terminal line.
func TestStreamFlushPoints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	coex, err := json.Marshal(coexploreRequest(frontPRMs(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, body string
		// The stream must carry at least minLines lines to tell its flush
		// points from a flush per line or per 256 lines.
		minLines int
		// flushed reports whether line i (from 1) of n must flush.
		flushed func(i, n int, line []byte) bool
	}{
		{"co-explore", "/v1/simulate", string(coex), 30, func(i, n int, line []byte) bool {
			return i == 1 || i == n || bytes.HasPrefix(line, []byte(`{"score":`))
		}},
		{"simulate", "/v1/simulate", `{"device":"XC6VLX75T","synthetic_n":3,"policy":"priority",
			"mix":{"jobs":400,"seed":42,"mean_exec_us":200,"mean_gap_us":50},"snapshot_every":20}`,
			10, func(int, int, []byte) bool { return true }},
		{"explore", "/v1/explore", `{"device":"XC6VLX75T","synthetic_n":7}`, 513, func(i, n int, _ []byte) bool {
			return i == 1 || i == n || i%256 == 0
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			lines := bytes.SplitAfter(rec.Body.Bytes(), []byte{'\n'})
			lines = lines[:len(lines)-1] // the empty tail after the last newline
			var want []int
			for i, line := range lines {
				if c.flushed(i+1, len(lines), line) {
					want = append(want, i+1)
				}
			}
			if !reflect.DeepEqual(rec.at, want) {
				t.Errorf("%d lines flushed at %v, want %v", len(lines), rec.at, want)
			}
			if len(lines) < c.minLines {
				t.Errorf("%d lines, want at least %d", len(lines), c.minLines)
			}
		})
	}
}
