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
// It fails the test on a transport error, so only the test goroutine may
// call it; spawned goroutines call tryPost and report with t.Errorf.
func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, raw, err := tryPost(ts, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// tryPost is post returning its transport error.
func tryPost(ts *httptest.Server, path, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("POST %s: reading body: %v", path, err)
	}
	return resp, raw, nil
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
		"malformed JSON":   {"/v1/prr", `{"device":`},
		"no device":        {"/v1/prr", `{"prms":[{"req":{"luts":1}}]}`},
		"unknown device":   {"/v1/prr", `{"device":"XC0FAKE","prms":[{"req":{"luts":1}}]}`},
		"empty batch":      {"/v1/bitstream", `{"device":"XC6VLX75T","items":[]}`},
		"both workloads":   {"/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3,"prms":[{"req":{"luts":1}}]}`},
		"negative workers": {"/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3,"options":{"workers":-1}}`},
		"negative n":       {"/v1/explore", `{"device":"XC6VLX75T","synthetic_n":-3}`},
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
// model evaluation; the rest join the leader's flight. The eval hook holds
// the leader until every requester has missed the cache, so none can be
// answered from it. A miss is counted in the locked step that joins or leads
// the flight, so k misses mean every follower has joined: no settle sleep.
func TestCoalescingKToOne(t *testing.T) {
	const k = 8
	gate := make(chan struct{})
	var evals atomic.Int64
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry: reg,
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
			resp, raw, err := tryPost(ts, "/v1/prr", body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = raw
		}(i)
	}
	// All k requesters must miss the cache before the leader may finish.
	waitCounter(t, s.met.cacheMisses, k)
	close(gate)
	wg.Wait()

	if n := evals.Load(); n != 1 {
		t.Errorf("evaluated %d times for %d identical requests", n, k)
	}
	if got := s.met.coalesced.Value(); got != k-1 {
		t.Errorf("coalesced %d requests, want %d", got, k-1)
	}
	// The registry series that costd's /metrics and -summary read reports
	// the same count.
	if got := reg.Counter("service_coalesced_total", "").Value(); got != k-1 {
		t.Errorf("service_coalesced_total = %d, want %d", got, k-1)
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
	const bound = 16
	s, ts := newTestServer(t, Config{CacheEntries: bound})
	for i := 0; i < 8*bound; i++ {
		body := fmt.Sprintf(`{"device":"XC6VLX75T","prms":[{"req":{"lut_ff_pairs":%d,"luts":%d,"ffs":100}}]}`, 200+i, 150+i)
		if resp, raw := post(t, ts, "/v1/prr", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if n, _ := held(s.cache); n != bound {
		t.Errorf("cache holds %d entries, cap is %d", n, bound)
	}
	if ev := s.met.cacheEvictions.Value(); ev != 7*bound {
		t.Errorf("%d evictions recorded under an 8x overflow, want %d", ev, 7*bound)
	}
}

// TestInflightShed: with the in-flight cap saturated by a held request, the
// next (distinct) request is shed with 429, while liveness stays exempt.
func TestInflightShed(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	s, ts := newTestServer(t, Config{
		maxInflight: 1,
		evalHook: func(string) {
			close(entered)
			<-gate
		},
	})
	held := make(chan int, 1)
	go func() {
		resp, _, err := tryPost(ts, "/v1/prr", `{"device":"XC6VLX75T","prms":[{"req":{"luts":100,"ffs":100}}]}`)
		if err != nil {
			t.Errorf("held request: %v", err)
			held <- 0
			return
		}
		held <- resp.StatusCode
	}()
	<-entered
	// A different body (its own flight key) while the slot is taken: shed.
	resp, _ := post(t, ts, "/v1/prr", `{"device":"XC6VLX75T","prms":[{"req":{"luts":101,"ffs":101}}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed response Retry-After = %q, want 1", ra)
	}
	if id := resp.Header.Get("X-Request-ID"); len(id) != 32 {
		t.Errorf("shed response X-Request-ID = %q, want a 32-hex trace ID", id)
	}
	if shed := s.met.shedInflight.Value(); shed != 1 {
		t.Errorf("shed(inflight) = %d, want 1", shed)
	}
	// Liveness is never shed: a probe of a saturated instance gets its 200.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz under a held cap: status %d, want 200", hresp.StatusCode)
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
	prm := func(name string, luts int) string {
		return fmt.Sprintf(`{"name":%q,"req":{"lut_ff_pairs":%d,"luts":%d,"ffs":%d}}`, name, 2*luts, luts, luts/2)
	}
	explore := func(options string, prms []string) string {
		return fmt.Sprintf(`{"device":"XC6VLX75T","front_only":true%s,"prms":[%s]}`, options, strings.Join(prms, ","))
	}
	// Eight PRMs over two signatures, then four rotations of the list.
	dup := make([]string, 8)
	for i := range dup {
		dup[i] = prm(fmt.Sprintf("dup%d", i), 900-500*(i/4))
	}
	rotations := [][]string{dup}
	for r := 1; r <= 4; r++ {
		rotations = append(rotations, append(append([]string{}, dup[r:]...), dup[:r]...))
	}
	cases := []struct {
		name string
		// requests lists each request's PRMs: the first is a miss, every
		// later one a permutation of it that the cache must answer.
		requests [][]string
	}{
		// Two signatures, two instances each — listed in different orders.
		// The first request leaves its second PRM unnamed, so it defaults to
		// the positional name M1 that the second request spells out.
		{"default names", [][]string{
			{prm("a", 900), `{"req":{"lut_ff_pairs":800,"luts":400,"ffs":200}}`, prm("b", 900), prm("c", 400)},
			{prm("c", 400), prm("b", 900), prm("M1", 400), prm("a", 900)},
		}},
		{"rotations", rotations},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evals := 0
			s, ts := newTestServer(t, Config{evalHook: func(string) { evals++ }})

			resp1, raw1 := post(t, ts, "/v1/explore", explore("", tc.requests[0]))
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("first explore: status %d: %s", resp1.StatusCode, raw1)
			}
			if hdr := resp1.Header.Get("X-Cache"); hdr != "miss" {
				t.Errorf("first explore X-Cache = %q, want miss", hdr)
			}
			for i, prms := range tc.requests[1:] {
				resp, raw := post(t, ts, "/v1/explore", explore("", prms))
				if hdr := resp.Header.Get("X-Cache"); hdr != "hit" {
					t.Errorf("permutation %d X-Cache = %q, want hit", i+1, hdr)
				}
				if !bytes.Equal(raw1, raw) {
					t.Errorf("permutation %d served a different body than the original", i+1)
				}
			}
			if evals != 1 {
				t.Errorf("engine ran %d times for %d permuted requests, want 1", evals, len(tc.requests))
			}
			if got, want := s.met.cacheHits.Value(), int64(len(tc.requests)-1); got != want {
				t.Errorf("cache hits = %d, want %d", got, want)
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

			// Symmetry off is a distinct request: it must not hit the
			// symmetric entry, and must report the same front with no
			// collapse.
			respOff, rawOff := post(t, ts, "/v1/explore", explore(`,"options":{"symmetry":"off"}`, tc.requests[0]))
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
		})
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
// expires cuts live explore and simulate streams loose instead of hanging,
// and returns only once each cut run has ended and counted itself: costd
// writes its -summary right after Shutdown returns. It holds for a Start'ed
// server, whose http.Server.Close does not wait for handlers, as for a bare
// handler, which has no listener to shut down.
func TestShutdownCancelsStragglingStreams(t *testing.T) {
	streams := []struct {
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
	}
	modes := []struct {
		name  string
		serve func(t *testing.T) (s *Server, url string)
	}{
		{"handler", func(t *testing.T) (*Server, string) {
			s, ts := newTestServer(t, Config{})
			return s, ts.URL
		}},
		{"started", func(t *testing.T) (*Server, string) {
			s := New(Config{Registry: obs.NewRegistry()})
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s, s.URL()
		}},
	}
	for _, tc := range streams {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					s, url := mode.serve(t)
					streamDone := make(chan error, 1)
					go func() {
						resp, err := http.Post(url+tc.path, "application/json", strings.NewReader(tc.body))
						if err == nil {
							_, err = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
						streamDone <- err
					}()
					waitCounter(t, tc.streams(s), 1)

					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					defer cancel()
					t0 := time.Now()
					err := s.Shutdown(ctx)
					cancelled := tc.cancelled(s).Value()
					if err != context.DeadlineExceeded {
						t.Errorf("Shutdown = %v, want context.DeadlineExceeded (stream outlives the budget)", err)
					}
					if d := time.Since(t0); d > 2*time.Second {
						t.Errorf("Shutdown took %v despite a 50ms budget", d)
					}
					if cancelled != 1 {
						t.Errorf("cancelled streams = %d when Shutdown returned, want 1", cancelled)
					}
					// A Start'ed server closes the connection under a stream cut
					// before its first flush, which the client may see as a
					// transport error; the counters above are what is pinned.
					if err := <-streamDone; err != nil && mode.name == "handler" {
						t.Errorf("stream errored: %v", err)
					}
				})
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

// TestRequestFailuresCounted: service_request_failures_total counts each
// request answered 429 or 5xx once under its endpoint — an admission shed, a
// drain refusal and an engine error — and never a client error; /metrics
// serves the request counter, the latency histogram and the failure counter
// for every endpoint.
func TestRequestFailuresCounted(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var buf logBuf
	al := obs.NewAccessLog(&buf)
	s, ts := newTestServer(t, Config{
		AccessLog:   al,
		maxInflight: 1,
		evalHook: func(endpoint string) {
			if endpoint == "bitstream" {
				close(entered)
				<-gate
			}
		},
	})
	held := make(chan int, 1)
	go func() {
		resp, _, err := tryPost(ts, "/v1/bitstream", `{"device":"XC6VLX75T","items":[{"h":1,"w_clb":1}]}`)
		if err != nil {
			t.Errorf("held request: %v", err)
			held <- 0
			return
		}
		held <- resp.StatusCode
	}()
	<-entered
	// Registered after the server's cleanups, so it runs before them: a
	// failed step must not leave the held request blocking the shutdown.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	expect := func(name, path, body string, status int) {
		t.Helper()
		if resp, raw := post(t, ts, path, body); resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d: %s", name, resp.StatusCode, status, raw)
		}
	}
	prr := `{"device":"XC6VLX75T","prms":[{"req":{"luts":500,"ffs":400}}]}`
	expect("shed", "/v1/prr", prr, http.StatusTooManyRequests)
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request finished with status %d", code)
	}
	expect("client error", "/v1/prr", `{"device":`, http.StatusBadRequest)
	expect("served", "/v1/prr", prr, http.StatusOK)
	expect("engine error", "/v1/simulate",
		`{"device":"XC6VLX75T","summary_only":true,"mix":{"jobs":10},"prms":[{"name":"huge","req":{"luts":10000000,"ffs":10000000}}]}`,
		http.StatusInternalServerError)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle Shutdown: %v", err)
	}
	expect("drain refusal", "/v1/explore", `{"device":"XC6VLX75T","synthetic_n":3}`, http.StatusServiceUnavailable)

	// The counters move before the access-log write in the same deferred
	// call, so six logged lines mean every request has been accounted.
	waitLines(t, al, 6)
	want := map[string]int64{"prr": 1, "simulate": 1, "explore": 1}
	for _, ep := range endpointNames {
		failures := s.met.failures[ep].Value()
		if failures != want[ep] {
			t.Errorf("failures{endpoint=%q} = %d, want %d", ep, failures, want[ep])
		}
		// Every request, shed ones included, is counted and timed once, so
		// failures / requests is a failure fraction.
		requests, timed := s.met.requests[ep].Value(), s.met.latency[ep].Snapshot().Count
		if requests != timed || requests < failures {
			t.Errorf("endpoint %q: %d requests, %d timed, %d failures; want requests == timed >= failures",
				ep, requests, timed, failures)
		}
	}
	// prr saw the shed, the 400 and the 200.
	if got := s.met.requests["prr"].Value(); got != 3 {
		t.Errorf("requests{endpoint=\"prr\"} = %d, want 3", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, ep := range endpointNames {
		for _, series := range []string{
			fmt.Sprintf(`service_requests_total{endpoint=%q} `, ep),
			fmt.Sprintf(`service_request_seconds_count{endpoint=%q} `, ep),
			fmt.Sprintf(`service_request_failures_total{endpoint=%q} %d`, ep, want[ep]),
		} {
			if !bytes.Contains(text, []byte(series)) {
				t.Errorf("/metrics lacks %q", series)
			}
		}
	}
}

// TestMetricsAndStats: /metrics exposes the serving series, and the run
// summary that costd -summary writes lists the same counters.
func TestMetricsAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
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

	got := map[string]int64{}
	for _, m := range report.NewRunSummary("costd", reg).Metrics {
		got[m.Name] += m.Value
	}
	if got["service_requests_total"] != 2 || got["service_cache_hits_total"] != 1 ||
		got["service_cache_misses_total"] != 1 {
		t.Errorf("summary reads %d requests, %d hits, %d misses, want 2, 1, 1",
			got["service_requests_total"], got["service_cache_hits_total"],
			got["service_cache_misses_total"])
	}
}
