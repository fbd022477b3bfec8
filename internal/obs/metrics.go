package obs

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d; negative deltas are ignored (counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (occupancy, rate of last run, ...).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (deltas may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are inclusive upper bounds (Prometheus "le" semantics); one extra overflow
// bucket catches observations above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow (+Inf)
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	// nsBounds[i] is the largest duration whose Seconds() is at most
	// bounds[nsSkip+i]; the first nsSkip bounds lie below every duration.
	// ObserveDurations buckets against them, starting a non-negative
	// duration of bit length k at nsStart[k], the first of them at or above
	// the smallest duration of that length: a 1-2.5-5 ladder puts at most
	// two bounds in one bit length.
	nsBounds []time.Duration
	nsSkip   int
	nsStart  [64]int32
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := append([]float64(nil), bounds...)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	for _, bound := range b {
		if d, ok := maxDurationAtMost(bound); ok {
			h.nsBounds = append(h.nsBounds, d)
		} else {
			h.nsSkip++
		}
	}
	for k := 1; k < len(h.nsStart); k++ {
		i, _ := slices.BinarySearch(h.nsBounds, time.Duration(1)<<(k-1))
		h.nsStart[k] = int32(i)
	}
	return h
}

// maxDurationAtMost returns the largest duration d with d.Seconds() <= s,
// or false when there is none. Seconds never decreases as d grows, so the
// durations that qualify are a prefix of the int64 range, found by
// bisection.
func maxDurationAtMost(s float64) (time.Duration, bool) {
	lo, hi := time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	if !(lo.Seconds() <= s) {
		return 0, false
	}
	if hi.Seconds() <= s {
		return hi, true
	}
	for uint64(hi-lo) > 1 { // lo qualifies, hi does not
		mid := lo + time.Duration(uint64(hi-lo)/2)
		if mid.Seconds() <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.addSum(v)
}

// ObserveDurations records each duration in seconds, with the bucket counts
// Observe would give them one by one and the sum it would add up, in order.
// Durations are bucketed against integer nanosecond bounds, with no float
// search. The batch is tallied locally first, so it costs one atomic add per
// non-empty bucket and one CAS on the sum however long it is: a simulation
// run records its per-job waits this way once, instead of contending on
// shared counters per event.
func (h *Histogram) ObserveDurations(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	var stack [32]int64
	local := stack[:]
	if len(h.counts) > len(stack) {
		local = make([]int64, len(h.counts))
	}
	sum := 0.0
	for _, d := range ds {
		i := 0
		if d >= 0 {
			i = int(h.nsStart[bits.Len64(uint64(d))])
		}
		for i < len(h.nsBounds) && h.nsBounds[i] < d { // first bound >= d
			i++
		}
		local[h.nsSkip+i]++
		sum += d.Seconds()
	}
	for i := range h.counts {
		if local[i] > 0 {
			h.counts[i].Add(local[i])
		}
	}
	h.addSum(sum)
}

// addSum adds v to the float64 sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// has len(Bounds)+1 entries; the last is the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram state. Count is the sum of the bucket loads,
// so the snapshot agrees with itself under concurrent observation; Sum is
// read separately and may be a few observations ahead or behind.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Fixed bucket layouts shared by the instrumented packages, so series from
// different runs and packages line up in dashboards and summaries.
var (
	// LatencyBuckets covers the cost models' evaluation latencies: 1µs to
	// 10s in a 1-2.5-5 decade ladder (seconds).
	LatencyBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// CountBuckets covers per-operation work counts (windows probed,
	// partitions enumerated): 1 to 100k in a 1-2.5-5 ladder.
	CountBuckets = []float64{
		1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
	}
	// SizeBuckets covers bitstream sizes in bytes: 1KiB to 16MiB.
	SizeBuckets = []float64{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
	}
)

// active gates floorplan's two per-device histograms. See SetActive.
var active atomic.Bool

// Active reports whether heavyweight instrumentation is enabled.
func Active() bool { return active.Load() }

// SetActive enables or disables heavyweight instrumentation. NewTracer and
// service's (*Server).Start enable it implicitly; commands writing run
// summaries enable it before running.
func SetActive(on bool) { active.Store(on) }
