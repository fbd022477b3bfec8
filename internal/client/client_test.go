package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/api"
)

// newServicePair mounts a real service behind httptest and a client on it.
func newServicePair(t *testing.T, cfg service.Config) (*service.Server, *Client) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := service.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, New(ts.URL)
}

// testPRR is a one-PRM batch. The fake servers below answer it with an empty
// result list; real services evaluate it.
var testPRR = &api.PRRRequest{
	Device: "XC6VLX75T",
	PRMs:   []api.PRM{{Name: "FIR", Req: api.Requirements{LUTFFPairs: 1300, LUTs: 1156, FFs: 889}}},
}

// TestRetryHonorsRetryAfter: a 429 with Retry-After delays the retry at least
// that long, and the retried call succeeds.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstTry, retry time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstTry = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded, retry later"}`)
		default:
			retry = time.Now()
			fmt.Fprint(w, `{"results":[]}`)
		}
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	if _, err := c.PRR(context.Background(), testPRR); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2 (429 then 200)", n)
	}
	if waited := retry.Sub(firstTry); waited < time.Second {
		t.Errorf("client retried after %v, Retry-After asked for 1s", waited)
	}
}

// TestRetryGivesUp: MaxRetries bounds the attempts and the final error
// carries the server's status.
func TestRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"still overloaded"}`)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	c.MaxRetries = 2
	c.Backoff = time.Millisecond
	_, err := c.PRR(context.Background(), testPRR)
	if err == nil {
		t.Fatal("call against a permanently overloaded server succeeded")
	}
	if !strings.Contains(err.Error(), "429") {
		t.Errorf("error %q does not carry the status", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", n)
	}
}

// TestNoRetryOnClientError: 4xx other than 429 fails immediately.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"no such device"}`)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	_, err := c.PRR(context.Background(), testPRR)
	if err == nil || !strings.Contains(err.Error(), "no such device") {
		t.Fatalf("err = %v, want the server's message", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("client retried a 400: %d calls", n)
	}
}

// TestClientAgainstService: the typed calls round-trip through a real
// service end to end.
func TestClientAgainstService(t *testing.T) {
	_, c := newServicePair(t, service.Config{})
	ctx := context.Background()
	prr, err := c.PRR(ctx, testPRR)
	if err != nil {
		t.Fatalf("PRR: %v", err)
	}
	if len(prr.Results) != 1 || !prr.Results[0].OK || prr.Results[0].Org == nil {
		t.Fatalf("PRR results %+v", prr.Results)
	}

	bit, err := c.Bitstream(ctx, &api.BitstreamRequest{
		Device: testPRR.Device,
		Items:  []api.Organization{{H: 1, WCLB: 4}},
	})
	if err != nil {
		t.Fatalf("Bitstream: %v", err)
	}
	if len(bit.Results) != 1 || !bit.Results[0].OK || bit.Results[0].SizeBytes <= 0 {
		t.Fatalf("Bitstream results %+v", bit.Results)
	}
}

// TestClientExploreStream: the NDJSON decoder delivers every point and the
// terminal Done event.
func TestClientExploreStream(t *testing.T) {
	_, c := newServicePair(t, service.Config{})
	points := 0
	done, err := c.Explore(context.Background(),
		&api.ExploreRequest{Device: "XC6VLX75T", SyntheticN: 4},
		func(api.DesignPoint) bool { points++; return true })
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if done.Stats.Partitions != 15 { // Bell(4)
		t.Errorf("partitions = %d, want 15", done.Stats.Partitions)
	}
	if int64(points) != done.Stats.Evaluated {
		t.Errorf("visited %d points, stats say %d evaluated", points, done.Stats.Evaluated)
	}
	if len(done.Front) == 0 {
		t.Error("empty front")
	}
}

// TestClientExploreSymmetry: the symmetry option and stats ride the typed
// client, a duplicate-heavy front-only explore reports the collapse, and a
// permuted resend of the same workload answers identically from the server's
// cache.
func TestClientExploreSymmetry(t *testing.T) {
	_, c := newServicePair(t, service.Config{})
	ctx := context.Background()
	sigA := api.Requirements{LUTFFPairs: 1300, LUTs: 1156, FFs: 889}
	sigB := api.Requirements{LUTFFPairs: 700, LUTs: 640, FFs: 520}
	req := &api.ExploreRequest{Device: "XC6VLX75T", FrontOnly: true, PRMs: []api.PRM{
		{Name: "a0", Req: sigA}, {Name: "a1", Req: sigA}, {Name: "b0", Req: sigB}, {Name: "b1", Req: sigB},
	}}
	done, err := c.Explore(ctx, req, nil)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if done.Stats.Classes != 2 {
		t.Errorf("classes = %d, want 2", done.Stats.Classes)
	}
	if done.Stats.OrbitsCollapsed == 0 {
		t.Error("no collapse reported on a duplicate-heavy workload")
	}

	permuted := &api.ExploreRequest{Device: req.Device, FrontOnly: true, PRMs: []api.PRM{
		req.PRMs[3], req.PRMs[1], req.PRMs[0], req.PRMs[2],
	}}
	again, err := c.Explore(ctx, permuted, nil)
	if err != nil {
		t.Fatalf("permuted Explore: %v", err)
	}
	if !reflect.DeepEqual(again, done) {
		t.Error("permuted workload answered differently")
	}

	off := &api.ExploreRequest{Device: req.Device, FrontOnly: true, PRMs: req.PRMs,
		Options: api.ExploreOptions{Symmetry: "off"}}
	flat, err := c.Explore(ctx, off, nil)
	if err != nil {
		t.Fatalf("symmetry-off Explore: %v", err)
	}
	if flat.Stats.OrbitsCollapsed != 0 {
		t.Errorf("symmetry off still collapsed %d partitions", flat.Stats.OrbitsCollapsed)
	}
	if !reflect.DeepEqual(flat.Front, done.Front) {
		t.Error("symmetric and flat fronts differ over the client")
	}
}

// TestClientAlwaysSendsTraceparent: even with no tracer attached, every
// attempt carries a well-formed traceparent, and retries keep the same trace.
func TestClientAlwaysSendsTraceparent(t *testing.T) {
	var calls atomic.Int64
	headers := make(chan string, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers <- r.Header.Get(obs.TraceparentHeader)
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded, retry later"}`)
			return
		}
		fmt.Fprint(w, `{"results":[]}`)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	c.Backoff = time.Millisecond
	if _, err := c.PRR(context.Background(), testPRR); err != nil {
		t.Fatal(err)
	}
	first, second := <-headers, <-headers
	tc1, ok := obs.ParseTraceparent(first)
	if !ok {
		t.Fatalf("first attempt sent malformed traceparent %q", first)
	}
	tc2, ok := obs.ParseTraceparent(second)
	if !ok {
		t.Fatalf("retry sent malformed traceparent %q", second)
	}
	if tc1.TraceID != tc2.TraceID {
		t.Errorf("retry switched traces: %s then %s", tc1.TraceID, tc2.TraceID)
	}
}

// TestClientServiceSharedSpanTree: with tracers on both sides, one call
// yields a client span and a service span in the same trace, the service span
// parented under the client's, and the retry count on the client span. An
// engine call carries the tree on into the engine: a streamed explore has
// dse.bb under the service span and one dse.bb.worker per engine worker under
// dse.bb; a co-exploration has service.coexplore_front (which explores the
// front on a cache miss, dse.bb beneath it) and sim.score_front under the
// service span.
func TestClientServiceSharedSpanTree(t *testing.T) {
	cases := []struct {
		endpoint string
		call     func(context.Context, *Client) error
		workers  int // dse.bb.worker spans under dse.bb; 0: the call runs no engine
		// parents maps each further server span to its parent's name.
		parents map[string]string
	}{
		{"prr", func(ctx context.Context, c *Client) error {
			_, err := c.PRR(ctx, testPRR)
			return err
		}, 0, nil},
		{"explore", func(ctx context.Context, c *Client) error {
			_, err := c.Explore(ctx, &api.ExploreRequest{
				Device: "XC6VLX75T", SyntheticN: 6, Options: api.ExploreOptions{Workers: 2},
			}, nil)
			return err
		}, 2, map[string]string{"dse.bb": "service.explore"}},
		{"simulate", func(ctx context.Context, c *Client) error {
			_, err := c.Simulate(ctx, &api.SimulateRequest{
				Device: "XC6VLX75T", SyntheticN: 4, CoExplore: true,
				Mix:     api.SimMix{Jobs: 60, Seed: 3, PriorityLevels: 2},
				Options: api.ExploreOptions{Workers: 1},
			}, nil)
			return err
		}, 1, map[string]string{
			"service.coexplore_front": "service.simulate",
			"dse.bb":                  "service.coexplore_front",
			"sim.score_front":         "service.simulate",
		}},
	}
	find := func(spans []obs.SpanRecord, name string) *obs.SpanRecord {
		for i := range spans {
			if spans[i].Name == name {
				return &spans[i]
			}
		}
		return nil
	}
	for _, tc := range cases {
		t.Run(tc.endpoint, func(t *testing.T) {
			// One call records at most five server spans (service, front,
			// dse.bb, workers, scoring) and one client span; the rings hold
			// them all.
			serverRing := obs.NewRingSink(16)
			_, c := newServicePair(t, service.Config{Tracer: obs.NewTracer(serverRing)})
			clientRing := obs.NewRingSink(16)
			ctx := obs.WithTracer(context.Background(), obs.NewTracer(clientRing))
			if err := tc.call(ctx, c); err != nil {
				t.Fatal(err)
			}

			cl := find(clientRing.Snapshot(), "client."+tc.endpoint)
			// A stream's service span ends after its done line is flushed, so
			// the client can finish first.
			var sspans []obs.SpanRecord
			deadline := time.Now().Add(time.Second)
			for {
				sspans = serverRing.Snapshot()
				if find(sspans, "service."+tc.endpoint) != nil || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			sv := find(sspans, "service."+tc.endpoint)
			if cl == nil || sv == nil {
				t.Fatalf("missing spans: client=%v server=%v", cl != nil, sv != nil)
			}
			if cl.Trace != sv.Trace {
				t.Errorf("client trace %s, server trace %s — not one tree", cl.Trace, sv.Trace)
			}
			if sv.Parent != cl.ID {
				t.Errorf("service span parent %x, want the client span %x", sv.Parent, cl.ID)
			}
			attempts := -1
			for _, a := range cl.Attrs {
				if a.Key == "attempts" {
					attempts, _ = a.Value.(int)
				}
			}
			if attempts != 1 {
				t.Errorf("client span attempts = %d, want 1", attempts)
			}
			for name, parent := range tc.parents {
				sp, ps := find(sspans, name), find(sspans, parent)
				if sp == nil || ps == nil {
					t.Fatalf("missing spans among %d: %s=%v %s=%v", len(sspans), name, sp != nil, parent, ps != nil)
				}
				if sp.Trace != cl.Trace || sp.Parent != ps.ID {
					t.Errorf("%s in trace %s under %x, want trace %s under %s %x",
						name, sp.Trace, sp.Parent, cl.Trace, parent, ps.ID)
				}
			}
			if front := find(sspans, "service.coexplore_front"); front != nil {
				var cache any
				for _, a := range front.Attrs {
					if a.Key == "cache" {
						cache = a.Value
					}
				}
				if cache != "miss" {
					t.Errorf("first co-exploration's front span has cache=%v, want miss", cache)
				}
			}
			if tc.workers == 0 {
				return
			}

			bb := find(sspans, "dse.bb")
			workers := 0
			for _, sp := range sspans {
				if sp.Name != "dse.bb.worker" {
					continue
				}
				workers++
				if sp.Trace != cl.Trace || sp.Parent != bb.ID {
					t.Errorf("worker span in trace %s under %x, want trace %s under dse.bb %x",
						sp.Trace, sp.Parent, cl.Trace, bb.ID)
				}
			}
			if workers != tc.workers {
				t.Errorf("%d dse.bb.worker spans, want %d", workers, tc.workers)
			}
		})
	}
}

// TestClientExploreAbandon: a visitor returning false abandons the stream,
// and the server-side engine observes the disconnect.
func TestClientExploreAbandon(t *testing.T) {
	reg := obs.NewRegistry()
	_, c := newServicePair(t, service.Config{Registry: reg})
	c.MaxRetries = 0
	_, err := c.Explore(context.Background(),
		&api.ExploreRequest{Device: "XC6VLX75T", SyntheticN: 11},
		func(api.DesignPoint) bool { return false })
	if err == nil {
		t.Fatal("abandoned stream reported success")
	}
	deadline := time.Now().Add(time.Second)
	for reg.Counter("service_explore_cancelled_total", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never accounted the abandoned stream")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientSimulateStream: the typed simulate call delivers snapshots and
// the terminal Done summary for a single-platform run.
func TestClientSimulateStream(t *testing.T) {
	_, c := newServicePair(t, service.Config{})
	snapshots := 0
	done, err := c.Simulate(context.Background(), &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 3, Policy: "priority",
		Mix:           api.SimMix{Jobs: 300, Seed: 5, Arrival: "bursty", MeanExecUS: 200, MeanGapUS: 50, PriorityLevels: 3},
		SnapshotEvery: 50,
	}, func(ev api.SimEvent) bool {
		if ev.Snapshot != nil {
			snapshots++
		}
		return true
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if snapshots == 0 {
		t.Error("no snapshots visited")
	}
	if done.Metrics == nil || done.Metrics.Completed != 300 || done.Metrics.Policy != "priority" {
		t.Fatalf("done metrics %+v, want 300 completed under priority", done.Metrics)
	}
	if len(done.PerSlot) != 2 {
		t.Errorf("per_slot has %d entries, want 2", len(done.PerSlot))
	}
}

// TestClientSimulateCoExplore: a co-exploration over the client returns the
// ranked scores, and a visitor abandoning the stream cancels the server run.
func TestClientSimulateCoExplore(t *testing.T) {
	reg := obs.NewRegistry()
	_, c := newServicePair(t, service.Config{Registry: reg})
	req := &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 4, CoExplore: true,
		Policies: []string{"fcfs", "reconfig"},
		Mix:      api.SimMix{Jobs: 120, Seed: 2, MeanExecUS: 150, MeanGapUS: 40},
	}
	done, err := c.Simulate(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if done.FrontSize == 0 || len(done.Scores) != 2*done.FrontSize {
		t.Fatalf("done has %d scores over a front of %d", len(done.Scores), done.FrontSize)
	}
	for i := 1; i < len(done.Scores); i++ {
		prev, cur := done.Scores[i-1].Metrics, done.Scores[i].Metrics
		if prev.Policy == cur.Policy && prev.P99WaitNS > cur.P99WaitNS {
			t.Errorf("scores %d and %d break the p99 ranking", i-1, i)
		}
	}

	c.MaxRetries = 0
	_, err = c.Simulate(context.Background(), &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 3,
		Mix:           api.SimMix{Jobs: 1_000_000, Seed: 3, MeanExecUS: 400, MeanGapUS: 300},
		SnapshotEvery: 100,
	}, func(api.SimEvent) bool { return false })
	if err == nil {
		t.Fatal("abandoned stream reported success")
	}
	deadline := time.Now().Add(time.Second)
	for reg.Counter("service_sim_cancelled_total", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never accounted the abandoned sim stream")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientSimulateContextCancelMidStream cancels the caller's context
// after the first streamed snapshot: Simulate must surface the
// cancellation, and the server must notice the dropped stream and account
// it on service_sim_cancelled_total within a second.
func TestClientSimulateContextCancelMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	_, c := newServicePair(t, service.Config{Registry: reg})
	c.MaxRetries = 0

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := c.Simulate(ctx, &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 3,
		Mix:           api.SimMix{Jobs: 1_000_000, Seed: 3, MeanExecUS: 400, MeanGapUS: 300},
		SnapshotEvery: 100,
	}, func(ev api.SimEvent) bool {
		cancel() // first event: hang up mid-stream
		return true
	})
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}

	cancelled := func() int64 {
		for _, sm := range reg.Gather() {
			if sm.Name == "service_sim_cancelled_total" {
				return sm.Value
			}
		}
		return 0
	}
	deadline := time.Now().Add(time.Second)
	for cancelled() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("service_sim_cancelled_total still 0 a second after hangup")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lateTerminator answers every request with body, flushed, and returns 50
// ms later, so the chunked terminator always arrives in a write of its own.
func lateTerminator(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, body)
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClientKeepsConnectionLateTerminator: a call reads its reply to EOF
// after the terminal line, so the transport keeps the connection and the
// second of two calls reuses it, even when the terminator trails the last
// line by 50 ms.
func TestClientKeepsConnectionLateTerminator(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		call       func(context.Context, *Client) error
	}{
		{"explore", `{"point":{"groups":[["A"]]}}` + "\n" + `{"done":{"front":[]}}` + "\n",
			func(ctx context.Context, c *Client) error {
				_, err := c.Explore(ctx, &api.ExploreRequest{Device: "XC6VLX75T", SyntheticN: 1}, nil)
				return err
			}},
		{"simulate", `{"snapshot":{"seq":1}}` + "\n" + `{"done":{"front_size":1}}` + "\n",
			func(ctx context.Context, c *Client) error {
				_, err := c.Simulate(ctx, &api.SimulateRequest{Device: "XC6VLX75T", SyntheticN: 1}, nil)
				return err
			}},
		{"simulate error line", `{"error":"engine failed"}` + "\n",
			func(ctx context.Context, c *Client) error {
				if _, err := c.Simulate(ctx, &api.SimulateRequest{Device: "XC6VLX75T", SyntheticN: 1}, nil); err == nil {
					return errors.New("an error line reported success")
				}
				return nil
			}},
		{"prr", `{"results":[]}` + "\n",
			func(ctx context.Context, c *Client) error {
				_, err := c.PRR(ctx, testPRR)
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(lateTerminator(tc.body))
			t.Cleanup(ts.Close)
			c := New(ts.URL)
			c.HTTPClient = &http.Client{Transport: &http.Transport{}}
			t.Cleanup(c.HTTPClient.CloseIdleConnections)
			var reused []bool
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
			})
			for i := 0; i < 2; i++ {
				if err := tc.call(ctx, c); err != nil {
					t.Fatalf("call %d: %v", i+1, err)
				}
			}
			if !reflect.DeepEqual(reused, []bool{false, true}) {
				t.Errorf("connections reused %v, want [false true]", reused)
			}
		})
	}
}

// TestClientAbandonNotDrained: a stream the visitor abandons is closed where
// it stands, not drained, so the server sees the disconnect: the handler's
// request context is cancelled while it still holds the stream open.
func TestClientAbandonNotDrained(t *testing.T) {
	cancelled := make(chan bool, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, `{"point":{"groups":[["A"]]}}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			cancelled <- true
		case <-time.After(2 * time.Second):
			cancelled <- false
		}
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	c.MaxRetries = 0
	_, err := c.Explore(context.Background(), &api.ExploreRequest{Device: "XC6VLX75T", SyntheticN: 1},
		func(api.DesignPoint) bool { return false })
	if err == nil {
		t.Fatal("abandoned stream reported success")
	}
	if !<-cancelled {
		t.Error("the handler's request context was not cancelled: the abandoned stream was drained")
	}
}

// TestClientOneConnectionPerCaller: sequential typed calls of every kind
// against a listening costd (explore streams, single-platform simulations,
// co-explorations and prr batches) all ride one connection.
func TestClientOneConnectionPerCaller(t *testing.T) {
	reg := obs.NewRegistry()
	s := service.New(service.Config{Registry: reg})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := New(s.URL())
	c.HTTPClient = &http.Client{Transport: &http.Transport{}}
	t.Cleanup(c.HTTPClient.CloseIdleConnections)
	ctx := context.Background()
	explore := &api.ExploreRequest{Device: "XC6VLX75T", SyntheticN: 6, Options: api.ExploreOptions{Workers: 1}}
	simulate := &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 3, Policy: "priority",
		Mix:           api.SimMix{Jobs: 100, Seed: 5, MeanExecUS: 200, MeanGapUS: 50},
		SnapshotEvery: 20,
	}
	coexplore := &api.SimulateRequest{
		Device: "XC6VLX75T", SyntheticN: 6, CoExplore: true,
		Mix:     api.SimMix{Jobs: 60, Seed: 2, Arrival: "bursty", MeanExecUS: 300, MeanGapUS: 60, PriorityLevels: 3},
		Options: api.ExploreOptions{Workers: 1},
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Explore(ctx, explore, nil); err != nil {
			t.Fatalf("explore %d: %v", i, err)
		}
		if _, err := c.Simulate(ctx, simulate, nil); err != nil {
			t.Fatalf("simulate %d: %v", i, err)
		}
		if _, err := c.Simulate(ctx, coexplore, nil); err != nil {
			t.Fatalf("co-exploration %d: %v", i, err)
		}
		if _, err := c.PRR(ctx, testPRR); err != nil {
			t.Fatalf("prr %d: %v", i, err)
		}
	}
	if n := reg.Counter("service_connections_total", "").Value(); n != 1 {
		t.Errorf("service_connections_total = %d after 40 sequential calls, want 1", n)
	}
}
