package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Objective is a per-endpoint service-level objective: a latency target at
// the 99th percentile and, optionally, an error budget — the fraction of
// requests allowed to fail (5xx or shed) before the objective is burned.
type Objective struct {
	Endpoint string
	// P99 is the rolling-window p99 latency objective; 0 means no latency
	// objective (the endpoint is tracked but always passes on latency).
	P99 time.Duration
	// ErrorBudget is the allowed failure fraction over the window; 0 means
	// no budget (failures are reported but never fail the objective).
	ErrorBudget float64
}

// SLOStatus is one endpoint's rolling-window standing against its objective.
type SLOStatus struct {
	Endpoint  string
	Objective Objective
	// Requests and Errors cover the merged window.
	Requests int64
	Errors   int64
	// P50/P90/P99 are bucket-interpolated latency quantiles over the window;
	// zero when the window holds no samples.
	P50, P90, P99 time.Duration
	// BudgetBurn is the observed failure fraction divided by the allowed
	// one: > 1 means the budget is exhausted. 0 when no budget is declared.
	BudgetBurn float64
	// Pass reports whether the window meets the objective. A window with no
	// samples passes vacuously.
	Pass bool
}

// sloSlot is one rotation window: a fixed-bucket latency histogram plus
// request/error totals, tagged with the epoch it currently holds so stale
// slots reset lazily on first touch.
type sloSlot struct {
	epoch  int64
	counts []int64 // len(LatencyBuckets)+1, last is overflow
	total  int64
	errors int64
}

// sloSeries is one endpoint's ring of slots.
type sloSeries struct {
	slots [sloSlots]sloSlot
}

// SLOTracker estimates rolling per-endpoint latency quantiles and error
// rates from a ring of fixed-bucket histogram slots. Observations land in
// the slot owning the current epoch (now / sloSlotDur); reads merge the
// ring's live slots, so the window covered is sloSlots × sloSlotDur and
// expired traffic ages out one slot at a time. All methods are safe for
// concurrent use.
type SLOTracker struct {
	objectives map[string]Objective
	now        func() time.Time

	mu  sync.Mutex
	eps map[string]*sloSeries
}

// SLO window geometry: six 10-second slots, a one-minute rolling window.
const (
	sloSlotDur = 10 * time.Second
	sloSlots   = 6
)

// NewSLOTracker builds a tracker over the one-minute window. Endpoints
// without a declared objective are still tracked; they just have nothing to
// fail.
func NewSLOTracker(objectives []Objective) *SLOTracker {
	t := &SLOTracker{
		objectives: make(map[string]Objective, len(objectives)),
		now:        time.Now,
		eps:        make(map[string]*sloSeries),
	}
	for _, o := range objectives {
		t.objectives[o.Endpoint] = o
	}
	return t
}

// Window returns the total duration the merged window covers.
func (t *SLOTracker) Window() time.Duration {
	return sloSlots * sloSlotDur
}

// Observe records one request: its endpoint, latency, and whether it failed
// (counted against the error budget). Nil receivers are inert.
func (t *SLOTracker) Observe(endpoint string, dur time.Duration, failed bool) {
	if t == nil {
		return
	}
	epoch := t.now().UnixNano() / int64(sloSlotDur)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.eps[endpoint]
	if s == nil {
		s = &sloSeries{}
		t.eps[endpoint] = s
	}
	sl := &s.slots[int(epoch%sloSlots)]
	if sl.epoch != epoch {
		if sl.counts == nil {
			sl.counts = make([]int64, len(LatencyBuckets)+1)
		} else {
			for i := range sl.counts {
				sl.counts[i] = 0
			}
		}
		sl.total, sl.errors = 0, 0
		sl.epoch = epoch
	}
	sl.counts[sort.SearchFloat64s(LatencyBuckets, dur.Seconds())]++
	sl.total++
	if failed {
		sl.errors++
	}
}

// Report merges each endpoint's live slots and scores it against its
// objective, sorted by endpoint name. Endpoints with a declared objective
// appear even before any traffic, so /debug/slo always shows what the
// service promises.
func (t *SLOTracker) Report() []SLOStatus {
	if t == nil {
		return nil
	}
	epoch := t.now().UnixNano() / int64(sloSlotDur)
	minEpoch := epoch - sloSlots + 1

	t.mu.Lock()
	names := make(map[string]bool, len(t.eps)+len(t.objectives))
	for ep := range t.eps {
		names[ep] = true
	}
	for ep := range t.objectives {
		names[ep] = true
	}
	out := make([]SLOStatus, 0, len(names))
	merged := make([]int64, len(LatencyBuckets)+1)
	for ep := range names {
		st := SLOStatus{Endpoint: ep, Objective: t.objectives[ep]}
		for i := range merged {
			merged[i] = 0
		}
		if s := t.eps[ep]; s != nil {
			for i := range s.slots {
				sl := &s.slots[i]
				if sl.epoch < minEpoch || sl.epoch > epoch || sl.total == 0 {
					continue
				}
				for b, c := range sl.counts {
					merged[b] += c
				}
				st.Requests += sl.total
				st.Errors += sl.errors
			}
		}
		if st.Requests > 0 {
			st.P50 = bucketQuantile(merged, st.Requests, 0.50)
			st.P90 = bucketQuantile(merged, st.Requests, 0.90)
			st.P99 = bucketQuantile(merged, st.Requests, 0.99)
		}
		st.Pass = true
		if st.Objective.ErrorBudget > 0 && st.Requests > 0 {
			st.BudgetBurn = float64(st.Errors) / float64(st.Requests) / st.Objective.ErrorBudget
			if st.BudgetBurn > 1 {
				st.Pass = false
			}
		}
		if st.Objective.P99 > 0 && st.Requests > 0 && st.P99 > st.Objective.P99 {
			st.Pass = false
		}
		out = append(out, st)
	}
	t.mu.Unlock()

	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// bucketQuantile interpolates the q-th quantile from merged bucket counts
// over the LatencyBuckets ladder. Ranks falling in the overflow bucket
// report the last finite bound — the estimator cannot see beyond its ladder.
func bucketQuantile(counts []int64, total int64, q float64) time.Duration {
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(LatencyBuckets) {
			return secondsToDuration(LatencyBuckets[len(LatencyBuckets)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = LatencyBuckets[i-1]
		}
		hi := LatencyBuckets[i]
		frac := float64(rank-(cum-c)) / float64(c)
		return secondsToDuration(lo + (hi-lo)*frac)
	}
	return 0
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// WritePrometheus renders the rolling SLO state in the Prometheus text
// format (all gauges: the window slides, so nothing here is monotone).
func (t *SLOTracker) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	report := t.Report()
	var firstErr error
	pf := func(format string, args ...any) {
		if _, err := fmt.Fprintf(w, format, args...); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	pf("# HELP slo_window_latency_seconds rolling-window latency quantiles per endpoint\n")
	pf("# TYPE slo_window_latency_seconds gauge\n")
	for _, st := range report {
		for _, qv := range []struct {
			q string
			v time.Duration
		}{{"0.5", st.P50}, {"0.9", st.P90}, {"0.99", st.P99}} {
			pf("slo_window_latency_seconds{endpoint=%q,quantile=%q} %s\n",
				st.Endpoint, qv.q, formatFloat(qv.v.Seconds()))
		}
	}
	pf("# HELP slo_window_requests rolling-window request count per endpoint\n")
	pf("# TYPE slo_window_requests gauge\n")
	for _, st := range report {
		pf("slo_window_requests{endpoint=%q} %d\n", st.Endpoint, st.Requests)
	}
	pf("# HELP slo_window_errors rolling-window failed-request count per endpoint\n")
	pf("# TYPE slo_window_errors gauge\n")
	for _, st := range report {
		pf("slo_window_errors{endpoint=%q} %d\n", st.Endpoint, st.Errors)
	}
	pf("# HELP slo_objective_p99_seconds declared p99 latency objective per endpoint\n")
	pf("# TYPE slo_objective_p99_seconds gauge\n")
	for _, st := range report {
		if st.Objective.P99 > 0 {
			pf("slo_objective_p99_seconds{endpoint=%q} %s\n",
				st.Endpoint, formatFloat(st.Objective.P99.Seconds()))
		}
	}
	pf("# HELP slo_error_budget_burn observed failure fraction over allowed (>1 = budget exhausted)\n")
	pf("# TYPE slo_error_budget_burn gauge\n")
	for _, st := range report {
		if st.Objective.ErrorBudget > 0 {
			pf("slo_error_budget_burn{endpoint=%q} %s\n", st.Endpoint, formatFloat(st.BudgetBurn))
		}
	}
	pf("# HELP slo_pass whether the endpoint currently meets its objective\n")
	pf("# TYPE slo_pass gauge\n")
	for _, st := range report {
		v := 0
		if st.Pass {
			v = 1
		}
		pf("slo_pass{endpoint=%q} %d\n", st.Endpoint, v)
	}
	return firstErr
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
