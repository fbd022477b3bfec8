package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
	"repro/internal/service/api"
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
