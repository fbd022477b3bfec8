// Command benchmark is the repository's end-to-end and per-layer benchmark.
// For one seeded workload it starts a fresh costd subprocess, drives it with
// closed-loop clients over internal/client for a timed window, checks a
// sample of the replies against in-process recomputation, and reports
// latency, throughput, set-up time and server cost. With -trace 1 it also
// replays a sample of the same requests layer by layer (client, service,
// dse, core/floorplan, sim) and reports per-layer numbers instead.
//
// Run it from the repository root through run.sh, which builds this program
// and costd from the checkout:
//
//	bash benchmark/run.sh --workload explore-front --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload coexplore-saturated --trace 1 --spans spans.jsonl
//	bash benchmark/run.sh --workload all --seed 1 --repeat 3 --out a.json
//	bash benchmark/run.sh --compare a.json b.json
//
// Each run prints one "workload metric value unit n=N" line per metric and,
// as its last line, a JSON object with the keys correct, attempted, failed
// and metrics. A correctness mismatch, or a run completing fewer than 200
// requests, exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Fixed run parameters. Clients are closed-loop because costd's callers are
// design tools that wait for each reply; two clients match the two-core
// reference machine, and a machine with fewer cores gets fewer.
const (
	maxClients  = 2
	setups      = 5
	maxSetups   = 25
	minRequests = 200
	checkSample = 8
	traceSample = 16
)

// runConfig holds everything one run needs besides the workload and seed.
type runConfig struct {
	costd       string
	window      time.Duration
	trace       bool
	clients     int
	setups      int
	minRequests int
	checkSample int
	traceSample int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

// machine is recorded in every result file.
type machine struct {
	NProc           int    `json:"nproc"`
	CostdGOMAXPROCS int    `json:"costd_gomaxprocs"`
	Clients         int    `json:"clients"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
}

// resultFile is the -out document, also the input of -compare.
type resultFile struct {
	Schema  string      `json:"schema"`
	Machine machine     `json:"machine"`
	Runs    []runResult `json:"runs"`
}

const resultSchema = "repro/benchmark/v1"

// e2eUnits names every end-to-end metric and its unit, in report order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"first_event_p50_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_rss_mb", "MiB"},
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of the timed window")
	trace := fs.Int("trace", 0, "1 replays a sample layer by layer and reports per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload")
	out := fs.String("out", "", "write every run, with machine facts, to this JSON file")
	spans := fs.String("spans", "", "with -trace 1, write the traced pass's spans to this JSONL file")
	costdBin := fs.String("costd", ".bench_build/costd", "costd binary to drive")
	compareMode := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	names := []string{*wlName}
	if *wlName == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *wlName) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *wlName, strings.Join(workloadNames, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1, -seconds and -repeat at least 1")
		return 2
	}
	if _, err := os.Stat(*costdBin); err != nil {
		fmt.Fprintf(stderr, "benchmark: costd binary: %v (run through benchmark/run.sh)\n", err)
		return 2
	}

	cfg := runConfig{
		costd: *costdBin, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		clients: min(maxClients, runtime.NumCPU()), setups: setups,
		minRequests: minRequests, checkSample: checkSample, traceSample: traceSample,
	}
	doc := resultFile{Schema: resultSchema, Machine: machineFacts(cfg.clients)}
	fmt.Fprintf(stdout, "machine nproc=%d costd_gomaxprocs=%d clients=%d go=%s cpu=%q\n",
		doc.Machine.NProc, doc.Machine.CostdGOMAXPROCS, doc.Machine.Clients, doc.Machine.GoVersion, doc.Machine.CPUModel)
	rec := newRecorder()
	all := workloads(fullSizes)
	code := 0
	for _, name := range names {
		for r := 0; r < *repeat; r++ {
			res, err := runOnce(ctx, cfg, all[name], *seed, rec)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			report(stdout, res, cfg.trace)
			for _, p := range res.Problems {
				fmt.Fprintf(stderr, "benchmark: %s: %s\n", name, p)
			}
			if !res.Correct {
				code = 1
			}
			doc.Runs = append(doc.Runs, *res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spans != "" && cfg.trace {
		if err := writeSpans(*spans, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runOnce sets costd up several times (the last instance serves the run),
// drives the timed window, checks a sample of replies and, when tracing,
// runs the traced pass. It returns an error only when set-up fails.
func runOnce(ctx context.Context, cfg runConfig, wl workload, seed uint64, rec *recorder) (*runResult, error) {
	ck, err := newChecker()
	if err != nil {
		return nil, err
	}
	var d *costd
	var setupTimes []float64
	// At least cfg.setups set-ups; cheap ones repeat for up to a second so
	// the median of a set-up lasting milliseconds is steady too.
	begun := time.Now()
	for k := 0; k < cfg.setups || k < maxSetups && time.Since(begun) < time.Second; k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = startCostd(ctx, cfg.costd, wl.costdArgs); err != nil {
			return nil, err
		}
		clients := newClients(d.url, cfg.clients)
		err = warmUp(ctx, clients, wl, seed)
		closeClients(clients)
		if err != nil {
			d.stop()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.stop()

	counters := []string{"service_cache_hits_total", "service_cache_misses_total",
		"service_coalesced_total", "service_cache_evictions_total", "service_shed_total"}
	before, err := d.scrape(ctx, counters...)
	if err != nil {
		return nil, err
	}
	clients := newClients(d.url, cfg.clients)
	defer closeClients(clients)
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssSamples := d.sampleRSS(100*time.Millisecond, stopRSS)
	st := drive(ctx, clients, wl, seed, wl.warmup, 0, cfg.window, cfg.checkSample)
	close(stopRSS)
	rss := <-rssSamples
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(ctx, counters...)
	if err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: wl.name, Seed: seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Attempted: st.attempted, Failed: st.failed, Problems: st.errs,
	}
	// A deterministic sample of the timed replies, alternating positions so
	// each client's share covers every request kind of a cycle.
	mismatches := 0
	checked := 0
	for _, k := range st.kept {
		if (k.pos+k.client)%2 != 0 || checked == cfg.checkSample {
			continue
		}
		checked++
		if err := ck.check(ctx, k.req, k.resp); err != nil {
			mismatches++
			res.Problems = append(res.Problems, fmt.Sprintf("check: client %d timed request %d: %v", k.client, k.pos, err))
		}
	}
	res.Failed += mismatches
	done := st.completed()
	if done < cfg.minRequests {
		res.Problems = append(res.Problems, fmt.Sprintf("completed %d requests, fewer than the %d a run needs", done, cfg.minRequests))
	}
	res.Correct = mismatches == 0 && done >= cfg.minRequests && checked > 0 && ctx.Err() == nil

	n := len(st.latency)
	res.Metrics = map[string]metric{
		"setup_s":               {median(setupTimes), "s", len(setupTimes)},
		"throughput_rps":        {float64(done) / max(st.elapsed, time.Nanosecond).Seconds(), "1/s", done},
		"latency_p50_ms":        {percentileMS(st.latency, 0.50), "ms", n},
		"latency_p95_ms":        {percentileMS(st.latency, 0.95), "ms", n},
		"first_event_p50_ms":    {percentileMS(st.first, 0.50), "ms", n},
		"server_cpu_ms_per_req": {float64((cpu1 - cpu0).Microseconds()) / 1e3 / float64(max(done, 1)), "ms", done},
		"server_rss_mb":         {median(rss), "MiB", len(rss)},
		// error_frac is reported beside the metrics, not among them: it is 0
		// on a healthy run, and the benchmark's metrics are never 0.
	}
	if cfg.trace {
		layers, err := tracePass(ctx, cfg, wl, seed, rec)
		if err != nil {
			return nil, err
		}
		lookups := delta(before, after, "service_cache_hits_total") + delta(before, after, "service_cache_misses_total")
		hitFrac := 0.0
		if lookups > 0 {
			hitFrac = delta(before, after, "service_cache_hits_total") / lookups
		}
		layers["service.cache_hit_frac"] = metric{hitFrac, "frac", int(lookups)}
		layers["service.coalesced"] = metric{delta(before, after, "service_coalesced_total"), "count", done}
		layers["service.evictions"] = metric{delta(before, after, "service_cache_evictions_total"), "count", done}
		layers["service.shed"] = metric{delta(before, after, "service_shed_total"), "count", done}
		res.Layers = layers
	}
	return res, nil
}

func delta(before, after map[string]float64, name string) float64 { return after[name] - before[name] }

// report prints one line per metric and then the result line: the JSON
// object with the end-to-end metrics, or with -trace 1 the per-layer ones.
func report(w io.Writer, res *runResult, trace bool) {
	errFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "%s error_frac %.6g frac n=%d\n", res.Workload, errFrac, res.Attempted)
	metrics, order := res.Metrics, e2eUnits
	if trace {
		metrics, order = res.Layers, layerUnits
	}
	out := make(map[string]map[string]any, len(order))
	for _, mu := range order {
		m := metrics[mu.name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, mu.name, m.Value, m.Unit, m.N)
		out[mu.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
	fmt.Fprintf(w, "%s\n", line)
}

func machineFacts(clients int) machine {
	m := machine{
		NProc: runtime.NumCPU(), CostdGOMAXPROCS: runtime.NumCPU(), Clients: clients,
		GoVersion: runtime.Version(), CPUModel: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// percentileMS is the nearest-rank percentile, in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return float64(s[min(max(i, 0), len(s)-1)].Nanoseconds()) / 1e6
}

// median is the middle value (the mean of the two middle values for an even
// count), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
