package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed values covering all three
// metric kinds, labeled and unlabeled series, and histogram observations in
// the first, middle and overflow buckets.
func goldenRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("dse_group_cache_hits_total", "group evaluations served from cache").Add(1200)
	reg.Counter("dse_group_cache_misses_total", "group evaluations computed").Add(34)
	reg.Gauge("dse_workers_active", "workers currently evaluating partitions").Set(8)
	reg.Counter("floorplan_window_probes_total", "window placements probed per device",
		obs.L("device", "xc5vlx110t")).Add(96)
	reg.Counter("floorplan_window_probes_total", "window placements probed per device",
		obs.L("device", "xc6vlx240t")).Add(42)
	h := reg.Histogram("dse_partition_eval_seconds", "latency of one partition evaluation",
		[]float64{1e-6, 1e-3, 1})
	h.Observe(5e-7) // first bucket
	h.Observe(5e-4) // second bucket
	h.Observe(5e-4)
	h.Observe(7.5) // overflow
	return reg
}

func goldenSummary() *RunSummary {
	s := NewRunSummary("dse", goldenRegistry())
	s.Device = "xc5vlx110t"
	s.Params = map[string]string{"n": "6", "workers": "8"}
	return s
}

func TestRunSummaryGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSummary().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	path := filepath.Join("testdata", "run_summary.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("summary JSON drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestRunSummaryDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenSummary().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenSummary().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical summaries encoded differently")
	}
}

func TestRunSummaryRoundTrip(t *testing.T) {
	orig := goldenSummary()
	orig.UnixNano = 1754400000000000000

	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunSummary(&buf)
	if err != nil {
		t.Fatalf("ReadRunSummary: %v", err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip changed summary:\ngot  %+v\nwant %+v", got, orig)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("rt_seconds", "round-trip test", obs.LatencyBuckets)
	obsValues := []float64{3e-7, 2e-6, 4.9e-5, 1e-4, 0.3, 42} // spread incl. exact bound + overflow
	for _, v := range obsValues {
		h.Observe(v)
	}
	snap := h.Snapshot()

	data, err := json.Marshal(HistogramFromSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded histogram invalid: %v", err)
	}
	if !reflect.DeepEqual(back.Bounds, snap.Bounds) {
		t.Errorf("bounds changed: got %v want %v", back.Bounds, snap.Bounds)
	}
	if !reflect.DeepEqual(back.Counts, snap.Counts) {
		t.Errorf("counts changed: got %v want %v", back.Counts, snap.Counts)
	}
	if back.Count != int64(len(obsValues)) {
		t.Errorf("count = %d, want %d", back.Count, len(obsValues))
	}
	var wantSum float64
	for _, v := range obsValues {
		wantSum += v
	}
	if math.Abs(back.Sum-wantSum) > 1e-12 {
		t.Errorf("sum = %g, want %g", back.Sum, wantSum)
	}
	// The overflow bucket must have caught the 42.
	if over := back.Counts[len(back.Counts)-1]; over != 1 {
		t.Errorf("overflow bucket = %d, want 1", over)
	}
}

func TestHistogramJSONValidate(t *testing.T) {
	cases := []struct {
		name string
		h    HistogramJSON
		ok   bool
	}{
		{"valid", HistogramJSON{Bounds: []float64{1, 2}, Counts: []int64{1, 0, 2}, Count: 3, Sum: 9}, true},
		{"empty", HistogramJSON{Bounds: nil, Counts: []int64{0}, Count: 0}, true},
		{"missing overflow", HistogramJSON{Bounds: []float64{1, 2}, Counts: []int64{1, 2}, Count: 3}, false},
		{"unsorted bounds", HistogramJSON{Bounds: []float64{2, 1}, Counts: []int64{0, 0, 0}, Count: 0}, false},
		{"negative count", HistogramJSON{Bounds: []float64{1}, Counts: []int64{-1, 1}, Count: 0}, false},
		{"count mismatch", HistogramJSON{Bounds: []float64{1}, Counts: []int64{1, 1}, Count: 3}, false},
	}
	for _, tc := range cases {
		err := tc.h.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestReadRunSummaryRejectsBadInput(t *testing.T) {
	if _, err := ReadRunSummary(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	bad := `{"schema":"` + RunSummarySchema + `","tool":"dse","metrics":[` +
		`{"name":"h","kind":"histogram","histogram":{"bounds":[1],"counts":[1],"count":1,"sum":1}}]}`
	if _, err := ReadRunSummary(strings.NewReader(bad)); err == nil {
		t.Error("histogram missing overflow bucket accepted")
	}
	if _, err := ReadRunSummary(strings.NewReader("not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}
