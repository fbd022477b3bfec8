package obs

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGauge: basic atomic semantics, including counter monotonicity.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// TestHistogramBuckets: observations land in the right le bucket, overflow
// included, and sum/count accumulate.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 1} // le=1: {0.5, 1}; le=10: {2, 10}; le=100: {50}; +Inf: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1063.5 {
		t.Errorf("sum = %g, want 1063.5", s.Sum)
	}
}

// TestObserveDurationsMatchesObserve: a batch lands in exactly the buckets
// and count that per-value Observe gives its values, bound values, zero and
// overflow included, and its sum agrees to 1e-9 relative. The 40-bound
// layout is wider than the batch's stack tally.
func TestObserveDurationsMatchesObserve(t *testing.T) {
	wide := make([]float64, 40)
	for i := range wide {
		wide[i] = float64(i+1) * 0.05
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, bounds := range [][]float64{LatencyBuckets, {1e-3}, wide} {
		batch, each := newHistogram(bounds), newHistogram(bounds)
		for rep := 0; rep < 6; rep++ {
			ds := make([]time.Duration, rng.IntN(400))
			for i := range ds {
				switch rng.IntN(4) {
				case 0: // exactly on a bound
					ds[i] = time.Duration(bounds[rng.IntN(len(bounds))] * 1e9)
				case 1:
					ds[i] = time.Duration(rng.Int64N(int64(time.Millisecond)))
				default:
					ds[i] = time.Duration(rng.Int64N(int64(12 * time.Second)))
				}
			}
			batch.ObserveDurations(ds)
			for _, d := range ds {
				each.Observe(d.Seconds())
			}
		}
		got, want := batch.Snapshot(), each.Snapshot()
		if !reflect.DeepEqual(got.Counts, want.Counts) || got.Count != want.Count {
			t.Errorf("%d bounds: batch counts %v (count %d), per-value %v (count %d)",
				len(bounds), got.Counts, got.Count, want.Counts, want.Count)
		}
		if math.Abs(got.Sum-want.Sum) > 1e-9*math.Abs(want.Sum) {
			t.Errorf("%d bounds: batch sum %g, per-value sum %g", len(bounds), got.Sum, want.Sum)
		}
	}
}

// TestObserveDurationsExact: ObserveDurations buckets each duration where
// Observe buckets its Seconds(), checked one duration at a time at each
// bound's nanosecond edges ±1 ns, at 0, at the int64 extremes and on random
// durations, and a batch of them all sums bit-identically to adding their
// Seconds() in order.
func TestObserveDurationsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, bounds := range [][]float64{
		LatencyBuckets, CountBuckets, SizeBuckets,
		{-1.5, 0, 1e-9, 1.2e-9, 1.5e-9, 2e-9, 9.2e9},
		{-1e19, math.Inf(1)},
	} {
		ds := []time.Duration{0, 1, -1, math.MaxInt64, math.MinInt64}
		for _, b := range bounds {
			if d, ok := maxDurationAtMost(b); ok {
				ds = append(ds, d-1, d, d+1)
			}
			if ns := b * 1e9; math.Abs(ns) < 9e18 {
				d := time.Duration(ns)
				ds = append(ds, d-1, d, d+1)
			}
		}
		for range 500 {
			switch rng.IntN(3) {
			case 0:
				ds = append(ds, time.Duration(rng.Int64N(int64(20*time.Second))))
			case 1:
				ds = append(ds, time.Duration(rng.Int64N(int64(time.Millisecond))))
			default:
				ds = append(ds, time.Duration(rng.Uint64()))
			}
		}
		want := 0.0
		for _, d := range ds {
			one, each := newHistogram(bounds), newHistogram(bounds)
			one.ObserveDurations([]time.Duration{d})
			each.Observe(d.Seconds())
			if got, exp := one.Snapshot().Counts, each.Snapshot().Counts; !reflect.DeepEqual(got, exp) {
				t.Fatalf("bounds %v: %d ns (%v s) bucketed %v, Observe gives %v", bounds, int64(d), d.Seconds(), got, exp)
			}
			want += d.Seconds()
		}
		batch := newHistogram(bounds)
		batch.ObserveDurations(ds)
		if got := batch.Snapshot().Sum; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("bounds %v: batch sum %v, in-order sum of Seconds() %v", bounds, got, want)
		}
	}
}

// TestHistogramConcurrent: parallel observers lose no counts (run with -race).
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
}

// TestHistogramSnapshotConsistent: snapshots and Prometheus text taken while
// Observe and ObserveDurations run agree with themselves: the buckets sum to
// the count, the cumulative buckets never decrease, and the +Inf bucket
// equals _count.
func TestHistogramSnapshotConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "latency", []float64{0.001, 0.01, 0.1})
	// No value overflows: a count that lags its buckets then shows as a
	// +Inf bucket below the last finite one.
	values := []float64{0.0005, 0.005, 0.05}
	batch := []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					h.Observe(values[i%len(values)])
				} else {
					h.ObserveDurations(batch)
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	var b strings.Builder
	for range 2000 {
		s := h.Snapshot()
		var total int64
		for _, c := range s.Counts {
			total += c
		}
		if total != s.Count {
			t.Fatalf("snapshot buckets sum to %d, count says %d", total, s.Count)
		}

		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var prev, inf, count int64 = -1, -1, -1
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseInt(val, 10, 64)
			switch {
			case strings.HasPrefix(name, "req_seconds_bucket"):
				if err != nil || v < prev {
					t.Fatalf("bucket %s = %s after %d: cumulative buckets decrease", name, val, prev)
				}
				prev = v
				if strings.Contains(name, `le="+Inf"`) {
					inf = v
				}
			case name == "req_seconds_count":
				count = v
			}
		}
		if inf < 0 || inf != count {
			t.Fatalf("+Inf bucket %d, _count %d:\n%s", inf, count, b.String())
		}
	}
}

// TestRegistryGetOrCreate: same (name, labels) yields the same instance;
// label order does not matter; kind mismatch panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "h", L("dev", "X"), L("kind", "clb"))
	b := r.Counter("hits_total", "h", L("kind", "clb"), L("dev", "X"))
	if a != b {
		t.Error("label order created distinct series")
	}
	if r.Counter("hits_total", "h") == a {
		t.Error("unlabeled series aliases labeled series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("hits_total", "h")
}

// TestWritePrometheus: text output carries HELP/TYPE once per name, label
// sets, and cumulative histogram buckets ending at +Inf.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache_hits_total", "cache hits").Add(3)
	r.Counter("windows_total", "windows", L("device", "XC6VLX75T")).Add(2)
	r.Counter("windows_total", "windows", L("device", "XC7Z020")).Add(5)
	h := r.Histogram("eval_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cache_hits_total counter",
		"cache_hits_total 3",
		`windows_total{device="XC6VLX75T"} 2`,
		`windows_total{device="XC7Z020"} 5`,
		"# TYPE eval_seconds histogram",
		`eval_seconds_bucket{le="0.001"} 1`,
		`eval_seconds_bucket{le="0.01"} 2`,
		`eval_seconds_bucket{le="+Inf"} 3`,
		"eval_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE windows_total") != 1 {
		t.Error("TYPE header repeated per labeled series")
	}
}

// TestGatherDeterministic: two gathers see identical series order.
func TestGatherDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.Counter("a_total", "")
	r.Gauge("c", "", L("x", "2"))
	r.Gauge("c", "", L("x", "1"))
	first := r.Gather()
	second := r.Gather()
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("gathered %d/%d series, want 4", len(first), len(second))
	}
	for i := range first {
		if seriesID(first[i].Name, first[i].Labels) != seriesID(second[i].Name, second[i].Labels) {
			t.Fatalf("order differs at %d", i)
		}
	}
	if first[0].Name != "a_total" {
		t.Errorf("first series %q, want a_total", first[0].Name)
	}
}
