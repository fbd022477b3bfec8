package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/service/api"
)

// tinySizes shrink every workload so a one-second window completes hundreds
// of requests.
var tinySizes = sizes{
	frontPRMs: 6, frontSigs: 2,
	streamPRMs: 4,
	coexN:      3, coexJobs: 40, coexPool: 4,
	batchItems: 2, batchPool: 2,
	lightN: 2, lightJobs: 20,
	cacheEntries: 8,
}

// costdPath is the costd binary TestMain builds from this checkout.
var costdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-costd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	costdPath = filepath.Join(dir, "costd")
	code := 1
	if out, err := exec.Command("go", "build", "-o", costdPath, "repro/cmd/costd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building costd: %v: %s\n", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// spec reads the metric names and units BENCHMARK.json declares.
func spec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	var s struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &s); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestEveryMetricEmitted runs every workload for one second at tiny sizes,
// traced, and requires each metric BENCHMARK.json names, with its unit, in
// the run result and in both forms of the result line.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers := spec(t)
	cfg := runConfig{
		costd: costdPath, window: time.Second, trace: true,
		clients: min(maxClients, runtime.NumCPU()), setups: 2,
		minRequests: 20, checkSample: checkSample, traceSample: 4,
	}
	all := workloads(tinySizes)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runOnce(context.Background(), cfg, all[name], 7, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, set := range []struct {
				trace bool
				want  map[string]string
				got   map[string]metric
			}{{false, e2e, res.Metrics}, {true, layers, res.Layers}} {
				if len(set.got) != len(set.want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", set.trace, len(set.got), len(set.want))
				}
				for name, unit := range set.want {
					m, ok := set.got[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case m.Unit != unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case !set.trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				var buf bytes.Buffer
				report(&buf, res, set.trace)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last struct {
					Correct   *bool                      `json:"correct"`
					Attempted *int                       `json:"attempted"`
					Failed    *int                       `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
					t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
				}
				for name, unit := range set.want {
					var m struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					}
					if err := json.Unmarshal(last.Metrics[name], &m); err != nil || m.Value == nil || m.Unit != unit {
						t.Errorf("result line metric %s = %s, want a value in %s", name, last.Metrics[name], unit)
					}
				}
			}
		})
	}
}

// TestCheckerCatchesFlippedFrontPoint corrupts one field of a correct explore
// reply and requires the checker to reject it.
func TestCheckerCatchesFlippedFrontPoint(t *testing.T) {
	ck, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	req := workloads(tinySizes)["explore-front"].next(3, 0, 0)
	prms := explorePRMs(req.explore)
	front, _, err := (&dse.Explorer{Device: ck.dev, Estimator: serverEstimator}).
		ExploreParetoBB(context.Background(), prms, bbOptions(req.explore.Options))
	if err != nil || len(front) == 0 {
		t.Fatalf("front of %d points: %v", len(front), err)
	}
	done := &api.ExploreDone{}
	for _, dp := range front {
		done.Front = append(done.Front, wirePoint(prms, dp))
	}
	if err := ck.check(context.Background(), req, response{explore: done}); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	done.Front[len(done.Front)-1].TotalTiles++
	if err := ck.check(context.Background(), req, response{explore: done}); err == nil {
		t.Fatal("checker accepted a front point with a flipped total_tiles")
	}
}

// TestFailureAccounting serves a stream that never sends its Done line and
// a 429 shed, and requires the load generator to count both as failed,
// without retrying the 429.
func TestFailureAccounting(t *testing.T) {
	var prrHits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/explore":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = json.NewEncoder(w).Encode(api.ExploreEvent{Point: &api.DesignPoint{Groups: [][]string{{"M0"}}}})
		default:
			prrHits.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "overloaded"})
		}
	}))
	defer srv.Close()
	wl := workload{name: "fake", next: func(seed uint64, c, i int) request {
		if i%2 == 0 {
			return workloads(tinySizes)["explore-stream"].next(seed, c, i)
		}
		return pooledPRR(seed, 0, tinySizes)
	}}
	clients := newClients(srv.URL, 1)
	defer closeClients(clients)
	st := drive(context.Background(), clients, wl, 1, 0, 4, 0, 0)
	if st.attempted != 4 || st.failed != 4 || st.completed() != 0 {
		t.Fatalf("attempted %d failed %d completed %d, want 4/4/0: %v", st.attempted, st.failed, st.completed(), st.errs)
	}
	if n := prrHits.Load(); n != 2 {
		t.Fatalf("%d prr requests reached the server, want 2 (no retries)", n)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts checks the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, lat, tput []float64) string {
		doc := resultFile{Schema: resultSchema}
		for i := range lat {
			doc.Runs = append(doc.Runs, runResult{Workload: "serve-mixed", Metrics: map[string]metric{
				"latency_p50_ms": {Value: lat[i], Unit: "ms"},
				"throughput_rps": {Value: tput[i], Unit: "1/s"},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := file("a.json", []float64{10, 10.1, 9.9}, []float64{100, 101, 99})
	b := file("b.json", []float64{13, 13.1, 12.9}, []float64{60, 140, 100})
	var out bytes.Buffer
	if err := compare(&out, "../BENCHMARK.json", a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency_p50_ms", "over", "throughput_rps", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compare(&out, "../BENCHMARK.json", a, a); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "within") != 2 {
		t.Errorf("a file compared with itself should be within on both metrics:\n%s", out.String())
	}
}
