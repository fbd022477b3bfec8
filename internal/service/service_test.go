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

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service/api"
)

const testDevice = "XC6VLX75T"

// newTestServer mounts an isolated service on httptest. Every test gets its
// own obs registry so counters never bleed across tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

// post issues one JSON POST and returns the response with its body read.
func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp, raw
}

// waitCounter polls until the counter reaches want, or fails after a second.
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
}

func TestDevicesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.DevicesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := device.Descriptors()
	if len(out.Devices) != len(want) {
		t.Fatalf("served %d devices, catalog has %d", len(out.Devices), len(want))
	}
	for i := range want {
		if out.Devices[i].Name != want[i].Name {
			t.Errorf("device %d: served %s, catalog says %s", i, out.Devices[i].Name, want[i].Name)
		}
	}
}

// TestPRRMatchesModel: the endpoint answers exactly what the in-process model
// computes — the service adds serving machinery, not arithmetic.
func TestPRRMatchesModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.PRRRequest{
		Device: testDevice,
		PRMs: []api.PRM{
			{Name: "FIR", Req: api.Requirements{LUTFFPairs: 1300, LUTs: 1156, FFs: 889, DSPs: 4, BRAMs: 2}},
			{Name: "impossible", Req: api.Requirements{LUTFFPairs: 1 << 30, LUTs: 1 << 30, FFs: 1 << 30}},
		},
	}
	body, _ := json.Marshal(&req)
	resp, raw := post(t, ts, "/v1/prr", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out api.PRRResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results for 2 PRMs", len(out.Results))
	}

	dev, err := device.Lookup(testDevice)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewPRRModel(dev).Estimate(req.PRMs[0].Req.Core())
	if err != nil {
		t.Fatal(err)
	}
	got := out.Results[0]
	if !got.OK {
		t.Fatalf("FIR failed: %s", got.Error)
	}
	if got.Org.H != want.Org.H || got.Org.WCLB != want.Org.WCLB ||
		got.Org.WDSP != want.Org.WDSP || got.Org.WBRAM != want.Org.WBRAM {
		t.Errorf("served org %+v, model says %+v", got.Org, want.Org)
	}
	if got.SizeTiles != want.Org.Size() {
		t.Errorf("served size %d tiles, model says %d", got.SizeTiles, want.Org.Size())
	}
	if *got.Avail != (api.Availability{CLBs: want.Avail.CLBs, FFs: want.Avail.FFs,
		LUTs: want.Avail.LUTs, DSPs: want.Avail.DSPs, BRAMs: want.Avail.BRAMs}) {
		t.Errorf("served avail %+v, model says %+v", got.Avail, want.Avail)
	}
	// The unsatisfiable PRM fails item-level, not batch-level.
	if out.Results[1].OK || out.Results[1].Error == "" {
		t.Errorf("impossible PRM reported %+v", out.Results[1])
	}
}

// TestBitstreamMatchesModel: same property for Eqs. (18)–(23).
func TestBitstreamMatchesModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.BitstreamRequest{
		Device: testDevice,
		Items: []api.Organization{
			{H: 2, WCLB: 5, WDSP: 1, WBRAM: 1},
			{H: 0, WCLB: 0}, // invalid item: fails item-level
		},
	}
	body, _ := json.Marshal(&req)
	resp, raw := post(t, ts, "/v1/bitstream", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out api.BitstreamResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}

	dev, err := device.Lookup(testDevice)
	if err != nil {
		t.Fatal(err)
	}
	bit := core.NewBitstreamModel(dev.Params)
	org := req.Items[0].Core()
	est := icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}
	got := out.Results[0]
	if !got.OK {
		t.Fatalf("item 0 failed: %s", got.Error)
	}
	if got.SizeWords != bit.SizeWords(org) || got.SizeBytes != bit.SizeBytes(org) {
		t.Errorf("served %d words / %d bytes, model says %d / %d",
			got.SizeWords, got.SizeBytes, bit.SizeWords(org), bit.SizeBytes(org))
	}
	if got.ReconfigNS != est.Estimate(bit.SizeBytes(org)).Nanoseconds() {
		t.Errorf("served reconfig %dns, estimator says %dns",
			got.ReconfigNS, est.Estimate(bit.SizeBytes(org)).Nanoseconds())
	}
	if out.Results[1].OK || out.Results[1].Error == "" {
		t.Errorf("degenerate organization reported %+v", out.Results[1])
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct{ path, body string }{
		"malformed JSON": {"/v1/prr", `{"device":`},
		"no device":      {"/v1/prr", `{"prms":[{"req":{"luts":1}}]}`},
		"unknown device": {"/v1/prr", `{"device":"XC0FAKE","prms":[{"req":{"luts":1}}]}`},
		"empty batch":    {"/v1/bitstream", `{"device":"XC6VLX75T","items":[]}`},
		"both workloads": {"/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3,"prms":[{"req":{"luts":1}}]}`},
	} {
		resp, raw := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		var e api.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q undecodable (%v)", name, raw, err)
		}
	}
}

// TestCoalescingKToOne: k concurrent identical requests perform exactly one
// model evaluation; the rest ride the singleflight. The eval hook holds the
// leader until every requester has missed the cache, so none can be answered
// from it.
func TestCoalescingKToOne(t *testing.T) {
	const k = 8
	gate := make(chan struct{})
	var evals atomic.Int64
	s, ts := newTestServer(t, Config{
		evalHook: func(string) {
			evals.Add(1)
			<-gate
		},
	})
	body := `{"device":"XC6VLX75T","prms":[{"name":"FIR","req":{"lut_ff_pairs":1300,"luts":1156,"ffs":889}}]}`

	var wg sync.WaitGroup
	bodies := make([][]byte, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := post(t, ts, "/v1/prr", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = raw
		}(i)
	}
	// All k requesters must pass the cache check before the leader may finish;
	// the settle gives the last missers time to reach the flight group.
	waitCounter(t, s.met.cacheMisses, k)
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := evals.Load(); n != 1 {
		t.Errorf("evaluated %d times for %d identical requests", n, k)
	}
	if got := s.met.coalesced.Value(); got != k-1 {
		t.Errorf("coalesced %d requests, want %d", got, k-1)
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got a different response than request 0", i)
		}
	}
}

// TestCacheHit: an identical follow-up request is answered from the LRU.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","prms":[{"req":{"lut_ff_pairs":332,"luts":288,"ffs":270}}]}`
	r1, raw1 := post(t, ts, "/v1/prr", body)
	r2, raw2 := post(t, ts, "/v1/prr", body)
	if h := r1.Header.Get("X-Cache"); h != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", h)
	}
	if h := r2.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("cache served a different body")
	}
	if hits := s.met.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// Field order must not defeat the cache: a reordered but equivalent body
	// hits the same canonical key.
	reordered := `{"prms":[{"req":{"ffs":270,"luts":288,"lut_ff_pairs":332}}],"device":"XC6VLX75T"}`
	r3, _ := post(t, ts, "/v1/prr", reordered)
	if h := r3.Header.Get("X-Cache"); h != "hit" {
		t.Errorf("reordered body X-Cache = %q, want hit", h)
	}
}

// TestCacheEvictionBounded: a stream of distinct requests never grows the
// cache past its bound, and evictions are accounted.
func TestCacheEvictionBounded(t *testing.T) {
	const bound = cacheShards // one entry per shard
	s, ts := newTestServer(t, Config{CacheEntries: bound})
	for i := 0; i < 8*bound; i++ {
		body := fmt.Sprintf(`{"device":"XC6VLX75T","prms":[{"req":{"lut_ff_pairs":%d,"luts":%d,"ffs":100}}]}`, 200+i, 150+i)
		if resp, raw := post(t, ts, "/v1/prr", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if n := s.cache.Len(); n > bound {
		t.Errorf("cache holds %d entries, bound is %d", n, bound)
	}
	if ev := s.met.cacheEvictions.Value(); ev == 0 {
		t.Error("no evictions recorded under an 8x overflow")
	}
}

// TestRateLimitSheds: a client past its token bucket gets 429 with a usable
// Retry-After, liveness stays exempt, and tokens return as the clock moves.
func TestRateLimitSheds(t *testing.T) {
	clk := newFakeClock()
	s, ts := newTestServer(t, Config{RatePerSec: 1, Burst: 2, now: clk.now})
	get := func() *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/devices", nil)
		req.Header.Set("X-Client-ID", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := get(); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request beyond burst: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1 (empty bucket at 1 token/s)", ra)
	}
	// Even a shed response carries a correlatable trace ID.
	if id := resp.Header.Get("X-Request-ID"); len(id) != 32 {
		t.Errorf("shed response X-Request-ID = %q, want a 32-hex trace ID", id)
	}
	if shed := s.met.shedRate.Value(); shed != 1 {
		t.Errorf("shed(rate) = %d, want 1", shed)
	}
	// Liveness is never shed.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz shed with status %d", hresp.StatusCode)
	}
	// And the advertised wait restores service.
	clk.advance(time.Second)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Errorf("request after refill: status %d", resp.StatusCode)
	}
}

// TestInflightShed: with the in-flight cap saturated by a held request, the
// next (distinct) request is shed with 429.
func TestInflightShed(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		evalHook: func(string) {
			close(entered)
			<-gate
		},
	})
	held := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/v1/prr", `{"device":"XC6VLX75T","prms":[{"req":{"luts":100,"ffs":100}}]}`)
		held <- resp.StatusCode
	}()
	<-entered
	// A different body (its own flight key) while the slot is taken: shed.
	resp, _ := post(t, ts, "/v1/prr", `{"device":"XC6VLX75T","prms":[{"req":{"luts":101,"ffs":101}}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response has no Retry-After")
	}
	if id := resp.Header.Get("X-Request-ID"); len(id) != 32 {
		t.Errorf("shed response X-Request-ID = %q, want a 32-hex trace ID", id)
	}
	if shed := s.met.shedInflight.Value(); shed != 1 {
		t.Errorf("shed(inflight) = %d, want 1", shed)
	}
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Errorf("held request finished with status %d", code)
	}
}

// TestExploreStream: the NDJSON stream carries point events and ends with a
// Done event whose front matches the engine run directly.
func TestExploreStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json",
		strings.NewReader(`{"device":"XC6VLX75T","synthetic_n":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	points := 0
	var done *api.ExploreDone
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev api.ExploreEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("undecodable stream line %q: %v", sc.Bytes(), err)
		}
		switch {
		case ev.Point != nil:
			points++
		case ev.Done != nil:
			done = ev.Done
		case ev.Error != "":
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if done == nil {
		t.Fatal("stream ended without a done event")
	}
	if int64(points) != done.Stats.Evaluated {
		t.Errorf("streamed %d points, stats say %d evaluated", points, done.Stats.Evaluated)
	}
	if done.Stats.Partitions != 15 { // Bell(4)
		t.Errorf("partitions = %d, want Bell(4) = 15", done.Stats.Partitions)
	}

	dev, err := device.Lookup(testDevice)
	if err != nil {
		t.Fatal(err)
	}
	e := &dse.Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
	front, _, err := e.ExploreParetoBB(context.Background(), dse.SyntheticPRMs(4), dse.BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Front) != len(front) {
		t.Errorf("served front has %d points, engine front has %d", len(done.Front), len(front))
	}
}

// TestExploreFrontOnly: front_only suppresses the point stream entirely.
func TestExploreFrontOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts, "/v1/explore", `{"device":"XC6VLX75T","synthetic_n":4,"front_only":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("front_only stream has %d lines, want 1", len(lines))
	}
	var ev api.ExploreEvent
	if err := json.Unmarshal(lines[0], &ev); err != nil || ev.Done == nil {
		t.Fatalf("single line is not a done event: %q (%v)", lines[0], err)
	}
	if len(ev.Done.Front) == 0 {
		t.Error("front_only returned an empty front")
	}
}

// TestExploreFrontCachedAcrossPermutations: front-only explorations go
// through the response cache keyed on the canonicalized request, so a
// permutation of a duplicate-heavy PRM list answers from the LRU without
// running the engine again — and the answer reports the symmetry stats.
func TestExploreFrontCachedAcrossPermutations(t *testing.T) {
	evals := 0
	s, ts := newTestServer(t, Config{evalHook: func(string) { evals++ }})

	prm := func(name string, luts int) string {
		return fmt.Sprintf(`{"name":%q,"req":{"lut_ff_pairs":%d,"luts":%d,"ffs":%d}}`, name, 2*luts, luts, luts/2)
	}
	// Two signatures, two instances each — listed in different orders. The
	// first request leaves its second PRM unnamed, so it defaults to the
	// positional name M1 that the second request spells out.
	unnamed := `{"req":{"lut_ff_pairs":800,"luts":400,"ffs":200}}`
	first := fmt.Sprintf(`{"device":"XC6VLX75T","front_only":true,"prms":[%s,%s,%s,%s]}`,
		prm("a", 900), unnamed, prm("b", 900), prm("c", 400))
	second := fmt.Sprintf(`{"device":"XC6VLX75T","front_only":true,"prms":[%s,%s,%s,%s]}`,
		prm("c", 400), prm("b", 900), prm("M1", 400), prm("a", 900))

	resp1, raw1 := post(t, ts, "/v1/explore", first)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first explore: status %d: %s", resp1.StatusCode, raw1)
	}
	if hdr := resp1.Header.Get("X-Cache"); hdr != "miss" {
		t.Errorf("first explore X-Cache = %q, want miss", hdr)
	}
	resp2, raw2 := post(t, ts, "/v1/explore", second)
	if hdr := resp2.Header.Get("X-Cache"); hdr != "hit" {
		t.Errorf("permuted explore X-Cache = %q, want hit", hdr)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("permuted request served a different body than the original")
	}
	if evals != 1 {
		t.Errorf("engine ran %d times for two permuted requests, want 1", evals)
	}
	if got := s.met.cacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	var ev api.ExploreEvent
	if err := json.Unmarshal(bytes.TrimSpace(raw1), &ev); err != nil || ev.Done == nil {
		t.Fatalf("response is not a single done event: %v", err)
	}
	if ev.Done.Stats.Classes != 2 {
		t.Errorf("stats report %d classes, want 2", ev.Done.Stats.Classes)
	}
	if ev.Done.Stats.OrbitsCollapsed == 0 {
		t.Error("no orbits collapsed on a duplicate-heavy workload")
	}
	if ev.Done.Stats.Evaluated+ev.Done.Stats.PrunedFit+ev.Done.Stats.PrunedDominated+
		ev.Done.Stats.OrbitsCollapsed != ev.Done.Stats.Partitions {
		t.Errorf("stats do not cover the partition space: %+v", ev.Done.Stats)
	}

	// Symmetry off is a distinct request: it must not hit the symmetric
	// entry, and must report the same front with no collapse.
	off := fmt.Sprintf(`{"device":"XC6VLX75T","front_only":true,"options":{"symmetry":"off"},"prms":[%s,%s,%s,%s]}`,
		prm("a", 900), prm("M1", 400), prm("b", 900), prm("c", 400))
	respOff, rawOff := post(t, ts, "/v1/explore", off)
	if hdr := respOff.Header.Get("X-Cache"); hdr != "miss" {
		t.Errorf("symmetry-off explore X-Cache = %q, want miss", hdr)
	}
	var evOff api.ExploreEvent
	if err := json.Unmarshal(bytes.TrimSpace(rawOff), &evOff); err != nil || evOff.Done == nil {
		t.Fatalf("symmetry-off response is not a single done event: %v", err)
	}
	if evOff.Done.Stats.OrbitsCollapsed != 0 {
		t.Errorf("symmetry off still collapsed %d partitions", evOff.Done.Stats.OrbitsCollapsed)
	}
	if !reflect.DeepEqual(evOff.Done.Front, ev.Done.Front) {
		t.Error("symmetric and flat explorations served different fronts")
	}
}

// TestExploreClientDisconnectCancels: dropping the stream mid-run stops the
// engine within the acceptance budget (< 1s).
func TestExploreClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/explore",
		strings.NewReader(`{"device":"XC6VLX75T","synthetic_n":11}`)) // Bell(11) = 678570: runs long unless cancelled
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

	for s.met.exploreCancelled.Value() == 0 {
		if time.Since(t0) > time.Second {
			t.Fatal("engine still running 1s after client disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("disconnect observed in %v", time.Since(t0))
}

// TestShutdownCancelsStragglingStreams: a graceful shutdown whose budget
// expires cuts live explore and simulate streams loose instead of hanging.
func TestShutdownCancelsStragglingStreams(t *testing.T) {
	for _, tc := range []struct {
		name, path, body   string
		streams, cancelled func(*Server) *obs.Counter
	}{
		{
			name: "explore", path: "/v1/explore",
			body:      `{"device":"XC6VLX75T","synthetic_n":11}`,
			streams:   func(s *Server) *obs.Counter { return s.met.exploreStreams },
			cancelled: func(s *Server) *obs.Counter { return s.met.exploreCancelled },
		},
		{
			name: "simulate", path: "/v1/simulate",
			body: `{"device":"XC6VLX75T","synthetic_n":3,
				"mix":{"jobs":1000000,"seed":3,"mean_exec_us":400,"mean_gap_us":300},"snapshot_every":100}`,
			streams:   func(s *Server) *obs.Counter { return s.met.simStreams },
			cancelled: func(s *Server) *obs.Counter { return s.met.simCancelled },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			streamDone := make(chan error, 1)
			go func() {
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					streamDone <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				streamDone <- nil
			}()
			waitCounter(t, tc.streams(s), 1)

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			t0 := time.Now()
			err := s.Shutdown(ctx) // handler-only mode: drains the stream registry
			if err != context.DeadlineExceeded {
				t.Errorf("Shutdown = %v, want context.DeadlineExceeded (stream outlives the budget)", err)
			}
			if d := time.Since(t0); d > 2*time.Second {
				t.Errorf("Shutdown took %v despite a 50ms budget", d)
			}
			if err := <-streamDone; err != nil {
				t.Errorf("stream errored: %v", err)
			}
			if got := tc.cancelled(s).Value(); got != 1 {
				t.Errorf("cancelled streams = %d, want 1", got)
			}
		})
	}
}

// logBuf is a mutex-guarded buffer for access-log tests: the server's
// deferred log write may outlive the client's view of the response, so reads
// and the bufio flush must not race.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuf) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// waitLines polls until the access log has accepted n lines: the middleware
// logs in a deferred call that can run after the client sees the response.
func waitLines(t *testing.T, l *obs.AccessLog, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for l.Lines() < n {
		if time.Now().After(deadline) {
			t.Fatalf("access log stuck at %d lines, want %d", l.Lines(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTracePropagationAndAccessLog: a request carrying a W3C traceparent gets
// its trace ID echoed as X-Request-ID, its service span recorded as a child
// of the remote span in the same trace, and one access-log line carrying the
// endpoint, canonical key, cache verdict and that trace ID.
func TestTracePropagationAndAccessLog(t *testing.T) {
	ring := obs.NewRingSink(64)
	var buf logBuf
	al := obs.NewAccessLog(&buf)
	_, ts := newTestServer(t, Config{Tracer: obs.NewTracer(ring), AccessLog: al})

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	const parentID = uint64(0xb7ad6b7169203331)
	body := `{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/prr", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.TraceContext{TraceID: traceID, SpanID: parentID}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-ID"); id != traceID {
		t.Errorf("X-Request-ID = %q, want the propagated trace ID %q", id, traceID)
	}

	waitLines(t, al, 1)
	lines := buf.lines()
	if len(lines) != 1 {
		t.Fatalf("access log holds %d lines, want 1", len(lines))
	}
	var rec obs.AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access line undecodable: %v: %q", err, lines[0])
	}
	if rec.Schema != obs.AccessLogSchema || rec.Endpoint != "prr" || rec.Method != http.MethodPost ||
		rec.Status != http.StatusOK || rec.TraceID != traceID {
		t.Errorf("access record %+v, want prr/POST/200 under trace %s", rec, traceID)
	}
	if rec.Key == "" || rec.Cache != "miss" || rec.Bytes <= 0 || rec.DurNS <= 0 {
		t.Errorf("access record lacks key/cache/bytes/duration: %+v", rec)
	}

	spans := ring.Snapshot()
	var svc *obs.SpanRecord
	for i := range spans {
		if spans[i].Name == "service.prr" {
			svc = &spans[i]
		}
	}
	if svc == nil {
		t.Fatal("no service.prr span recorded")
	}
	if svc.Trace != traceID {
		t.Errorf("span trace %q, want %q", svc.Trace, traceID)
	}
	if svc.Parent != parentID {
		t.Errorf("span parent %x, want the remote span %x", svc.Parent, parentID)
	}

	// Without a traceparent the server mints a fresh trace and still echoes it.
	resp2, _ := post(t, ts, "/v1/prr", body)
	id := resp2.Header.Get("X-Request-ID")
	if len(id) != 32 || id == traceID {
		t.Errorf("minted X-Request-ID = %q, want a fresh 32-hex trace ID", id)
	}
	waitLines(t, al, 2)
	var rec2 obs.AccessRecord
	lines = buf.lines()
	if err := json.Unmarshal([]byte(lines[1]), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.TraceID != id || rec2.Cache != "hit" {
		t.Errorf("second record trace=%q cache=%q, want %q/hit", rec2.TraceID, rec2.Cache, id)
	}
}

// TestDrainRefusalLogged: once a drain has begun, every new explore or
// simulate request — streamed or cached — is refused with 503, still carries
// X-Request-ID, and is access-logged with shed="draining". Batch endpoints
// are not drain-gated: a PRR batch is still answered.
func TestDrainRefusalLogged(t *testing.T) {
	for _, tc := range []struct {
		name, path, body string
		status           int
		shed             string
	}{
		{"explore stream", "/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3}`,
			http.StatusServiceUnavailable, "draining"},
		{"explore front", "/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3,"front_only":true}`,
			http.StatusServiceUnavailable, "draining"},
		{"simulate stream", "/v1/simulate", `{"device":"XC6VLX75T","synthetic_n":3,"mix":{"jobs":20,"seed":1}}`,
			http.StatusServiceUnavailable, "draining"},
		{"simulate summary", "/v1/simulate", `{"device":"XC6VLX75T","synthetic_n":3,"summary_only":true,"mix":{"jobs":20,"seed":1}}`,
			http.StatusServiceUnavailable, "draining"},
		{"prr batch", "/v1/prr", `{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`,
			http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf logBuf
			al := obs.NewAccessLog(&buf)
			s, ts := newTestServer(t, Config{AccessLog: al})
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatalf("idle Shutdown: %v", err)
			}
			resp, raw := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("%s during drain: status %d, want %d: %s", tc.path, resp.StatusCode, tc.status, raw)
			}
			if id := resp.Header.Get("X-Request-ID"); len(id) != 32 {
				t.Errorf("X-Request-ID = %q, want a 32-hex trace ID", id)
			}
			waitLines(t, al, 1)
			var rec obs.AccessRecord
			if err := json.Unmarshal([]byte(buf.lines()[0]), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Shed != tc.shed || rec.Status != tc.status {
				t.Errorf("logged as %+v, want shed=%q status=%d", rec, tc.shed, tc.status)
			}
		})
	}
}

// TestStreamedExploreLogsKey: a streamed explore is access-logged with its
// canonical request key, as streamed simulations and every cached request
// are.
func TestStreamedExploreLogsKey(t *testing.T) {
	var buf logBuf
	al := obs.NewAccessLog(&buf)
	_, ts := newTestServer(t, Config{AccessLog: al})
	body := `{"device":"XC6VLX75T","synthetic_n":4}`
	resp, raw := post(t, ts, "/v1/explore", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	waitLines(t, al, 1)
	var rec obs.AccessRecord
	if err := json.Unmarshal([]byte(buf.lines()[0]), &rec); err != nil {
		t.Fatal(err)
	}
	var req api.ExploreRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if want := api.CanonicalKey("explore", &req); rec.Key != want {
		t.Errorf("streamed explore logged key %q, want %q", rec.Key, want)
	}
}

// TestDebugSLO: /debug/slo serves the rolling standings — declared endpoints
// appear even before traffic, served traffic lands in its endpoint's window,
// and the payload validates against the summary schema.
func TestDebugSLO(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`
	post(t, ts, "/v1/prr", body)
	post(t, ts, "/v1/prr", body)

	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum report.SLOSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatalf("/debug/slo payload invalid: %v", err)
	}
	if sum.WindowNS != int64(obs.DefaultSLOSlots)*int64(obs.DefaultSLOSlotDur) {
		t.Errorf("window %d ns, want the default geometry", sum.WindowNS)
	}
	got := map[string]report.SLOEndpoint{}
	for _, ep := range sum.Endpoints {
		got[ep.Endpoint] = ep
	}
	prr, ok := got["prr"]
	if !ok {
		t.Fatalf("prr missing from %+v", sum.Endpoints)
	}
	if prr.Requests != 2 || !prr.Pass || prr.P99NS <= 0 {
		t.Errorf("prr standing %+v, want 2 passing requests with a quantile", prr)
	}
	if prr.ObjectiveP99NS != int64(500*time.Millisecond) {
		t.Errorf("prr objective %d ns, want the default 500ms", prr.ObjectiveP99NS)
	}
	// Declared but idle endpoints still advertise their objective.
	if ep, ok := got["explore"]; !ok || ep.Requests != 0 || !ep.Pass {
		t.Errorf("idle explore standing %+v, want declared and vacuously passing", got["explore"])
	}

	// The Prometheus exposition carries the same rolling series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`slo_window_requests{endpoint="prr"} 2`,
		`slo_pass{endpoint="prr"} 1`,
		`slo_objective_p99_seconds{endpoint="explore"} 30`,
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestMetricsAndStats: /metrics exposes the serving series and Stats() rolls
// them into the run-summary section.
func TestMetricsAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`
	post(t, ts, "/v1/prr", body)
	post(t, ts, "/v1/prr", body) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		"service_requests_total", "service_cache_hits_total", "service_coalesced_total",
		"service_shed_total", "service_explore_streams_total",
	} {
		if !bytes.Contains(text, []byte(series)) {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	sum := s.Stats()
	if err := sum.Validate(); err != nil {
		t.Fatalf("Stats() invalid: %v", err)
	}
	if sum.Requests != 2 || sum.CacheHits != 1 || sum.CacheMisses != 1 {
		t.Errorf("Stats() = %+v, want 2 requests, 1 hit, 1 miss", sum)
	}
}
