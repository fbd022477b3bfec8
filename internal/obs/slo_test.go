package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// testSLO returns a tracker on a fake clock.
func testSLO(objs []Objective) (*SLOTracker, *time.Time) {
	t := NewSLOTracker(objs)
	clock := time.Unix(10_000, 0)
	t.now = func() time.Time { return clock }
	return t, &clock
}

func statusOf(t *testing.T, report []SLOStatus, endpoint string) SLOStatus {
	t.Helper()
	for _, st := range report {
		if st.Endpoint == endpoint {
			return st
		}
	}
	t.Fatalf("endpoint %s not in report %+v", endpoint, report)
	return SLOStatus{}
}

// TestSLOQuantilesAndVerdict: a bimodal latency mix lands the right
// quantiles in the right buckets and fails a violated p99 objective.
func TestSLOQuantilesAndVerdict(t *testing.T) {
	tr, _ := testSLO([]Objective{{Endpoint: "prr", P99: 500 * time.Millisecond}})
	for i := 0; i < 90; i++ {
		tr.Observe("prr", time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		tr.Observe("prr", time.Second, false)
	}
	st := statusOf(t, tr.Report(), "prr")
	if st.Requests != 100 || st.Errors != 0 {
		t.Fatalf("requests/errors = %d/%d, want 100/0", st.Requests, st.Errors)
	}
	if st.P50 > 2*time.Millisecond || st.P50 <= 0 {
		t.Errorf("p50 = %v, want ~1ms", st.P50)
	}
	if st.P90 > 2*time.Millisecond {
		t.Errorf("p90 = %v, want within the 1ms bucket", st.P90)
	}
	if st.P99 < 500*time.Millisecond || st.P99 > time.Second {
		t.Errorf("p99 = %v, want within the 1s bucket", st.P99)
	}
	if !(st.P50 <= st.P90 && st.P90 <= st.P99) {
		t.Errorf("quantiles not monotone: %v %v %v", st.P50, st.P90, st.P99)
	}
	if st.Pass {
		t.Error("p99 ~1s passed a 500ms objective")
	}
}

// TestSLOWindowRotation: samples age out slot by slot; past the full window
// the endpoint reads empty and passes vacuously.
func TestSLOWindowRotation(t *testing.T) {
	tr, clock := testSLO([]Objective{{Endpoint: "prr", P99: 500 * time.Millisecond}})
	tr.Observe("prr", time.Second, false) // violates the objective
	if st := statusOf(t, tr.Report(), "prr"); st.Pass || st.Requests != 1 {
		t.Fatalf("fresh violation: %+v", st)
	}
	// Four slots later the sample is still inside the six-slot window.
	*clock = clock.Add(40 * time.Second)
	if st := statusOf(t, tr.Report(), "prr"); st.Requests != 1 {
		t.Fatalf("sample aged out early: %+v", st)
	}
	// Past the window it is gone, and newer traffic owns the verdict.
	*clock = clock.Add(30 * time.Second)
	tr.Observe("prr", time.Millisecond, false)
	st := statusOf(t, tr.Report(), "prr")
	if st.Requests != 1 {
		t.Fatalf("window holds %d requests, want only the fresh one", st.Requests)
	}
	if !st.Pass {
		t.Error("fresh 1ms traffic still failing the objective")
	}
	// Declared objectives surface even with an empty window.
	*clock = clock.Add(10 * time.Minute)
	st = statusOf(t, tr.Report(), "prr")
	if st.Requests != 0 || !st.Pass {
		t.Errorf("empty window: %+v, want 0 requests and vacuous pass", st)
	}
}

// TestSLOErrorBudgetBurn: failures burn the declared budget; exceeding it
// fails the objective even when latency is fine.
func TestSLOErrorBudgetBurn(t *testing.T) {
	tr, _ := testSLO([]Objective{{Endpoint: "prr", P99: time.Second, ErrorBudget: 0.1}})
	for i := 0; i < 95; i++ {
		tr.Observe("prr", time.Millisecond, false)
	}
	for i := 0; i < 5; i++ {
		tr.Observe("prr", time.Millisecond, true)
	}
	st := statusOf(t, tr.Report(), "prr")
	if st.Errors != 5 {
		t.Fatalf("errors = %d, want 5", st.Errors)
	}
	if st.BudgetBurn < 0.49 || st.BudgetBurn > 0.51 {
		t.Errorf("burn = %v, want 0.5 (5%% observed over 10%% allowed)", st.BudgetBurn)
	}
	if !st.Pass {
		t.Error("half-burned budget failed the objective")
	}
	for i := 0; i < 20; i++ {
		tr.Observe("prr", time.Millisecond, true)
	}
	st = statusOf(t, tr.Report(), "prr")
	if st.BudgetBurn <= 1 || st.Pass {
		t.Errorf("exhausted budget still passing: burn=%v pass=%v", st.BudgetBurn, st.Pass)
	}
}

// TestSLOUndeclaredEndpointTracked: traffic on endpoints without objectives
// is measured and always passes.
func TestSLOUndeclaredEndpointTracked(t *testing.T) {
	tr, _ := testSLO(nil)
	tr.Observe("adhoc", 3*time.Second, true)
	st := statusOf(t, tr.Report(), "adhoc")
	if st.Requests != 1 || st.Errors != 1 || !st.Pass {
		t.Errorf("undeclared endpoint: %+v", st)
	}
	if st.BudgetBurn != 0 {
		t.Errorf("burn without a budget = %v, want 0", st.BudgetBurn)
	}
}

// TestSLOPrometheusText: the text exposition carries the window quantiles,
// objective and verdict series with endpoint labels.
func TestSLOPrometheusText(t *testing.T) {
	tr, _ := testSLO([]Objective{{Endpoint: "prr", P99: 500 * time.Millisecond, ErrorBudget: 0.01}})
	tr.Observe("prr", time.Millisecond, false)
	var sb strings.Builder
	if err := tr.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`slo_window_latency_seconds{endpoint="prr",quantile="0.99"} `,
		`slo_window_requests{endpoint="prr"} 1`,
		`slo_objective_p99_seconds{endpoint="prr"} 0.5`,
		`slo_error_budget_burn{endpoint="prr"} 0`,
		`slo_pass{endpoint="prr"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

// TestSLOConcurrentObserve: concurrent observers and readers are safe and
// lose nothing.
func TestSLOConcurrentObserve(t *testing.T) {
	tr := NewSLOTracker(nil)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Observe("prr", time.Millisecond, false)
				if i%100 == 0 {
					tr.Report()
				}
			}
		}()
	}
	wg.Wait()
	st := statusOf(t, tr.Report(), "prr")
	if st.Requests != writers*per {
		t.Fatalf("window holds %d requests, want %d", st.Requests, writers*per)
	}
}

// TestSLONilInert: nil trackers are inert at every call site.
func TestSLONilInert(t *testing.T) {
	var tr *SLOTracker
	tr.Observe("x", time.Second, true)
	if tr.Report() != nil {
		t.Error("nil tracker reported something")
	}
	if err := tr.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
}
