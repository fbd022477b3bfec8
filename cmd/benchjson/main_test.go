package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/dse
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExploreAllSequential/n=10-8        	       2	 712345678 ns/op
BenchmarkExploreParetoBB/n=11-8            	       1	1397632383 ns/op	         0.9477 pruned-frac	         6.000 resident-peak
PASS
ok  	repro/internal/dse	4.865s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != Schema || doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Fatalf("header fields wrong: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[1]
	if b.Name != "BenchmarkExploreParetoBB/n=11" || b.Iterations != 1 || b.NsPerOp != 1397632383 {
		t.Fatalf("bench parsed wrong: %+v", b)
	}
	if b.Metrics["pruned-frac"] != 0.9477 || b.Metrics["resident-peak"] != 6 {
		t.Fatalf("extra metrics wrong: %+v", b.Metrics)
	}
}

func TestCompare(t *testing.T) {
	old := BenchDoc{Schema: Schema, Benchmarks: []Bench{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Gone", NsPerOp: 50},
	}}
	cur := BenchDoc{Schema: Schema, Benchmarks: []Bench{
		{Name: "A", NsPerOp: 125}, // within a 1.30x threshold
		{Name: "B", NsPerOp: 140}, // regressed
		{Name: "New", NsPerOp: 10},
	}}
	var sb strings.Builder
	regressed := compare(&sb, old, cur, 1.30)
	if len(regressed) != 1 || regressed[0] != "B" {
		t.Fatalf("regressed = %v, want [B]\n%s", regressed, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"REGRESSED", "no baseline", "in baseline only"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestParseBenchmem(t *testing.T) {
	const memSample = `BenchmarkEstimate-8   5227338   226.6 ns/op   0 B/op   0 allocs/op
`
	doc, err := parse(strings.NewReader(memSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Metrics["B/op"] != 0 || b.Metrics["allocs/op"] != 0 {
		t.Fatalf("-benchmem metrics not captured: %+v", b.Metrics)
	}
}

// TestParseNonFinite: a 0/0 ReportMetric ratio renders "NaN" in the bench
// line; json.Marshal rejects NaN and ±Inf, so the parser must drop such
// metrics while keeping the benchmark (and its finite metrics) intact.
func TestParseNonFinite(t *testing.T) {
	const nanSample = `BenchmarkExploreParetoBBDup/n=12/k=3-8   1   55000000 ns/op   NaN memo-hit-rate   0.91 collapsed-frac   +Inf bogus-ratio
`
	doc, err := parse(strings.NewReader(nanSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if _, ok := b.Metrics["memo-hit-rate"]; ok {
		t.Errorf("NaN metric survived the parse: %+v", b.Metrics)
	}
	if _, ok := b.Metrics["bogus-ratio"]; ok {
		t.Errorf("Inf metric survived the parse: %+v", b.Metrics)
	}
	if b.Metrics["collapsed-frac"] != 0.91 {
		t.Errorf("finite metric lost: %+v", b.Metrics)
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Errorf("sanitized document still fails to marshal: %v", err)
	}
}

func TestCompareAllocs(t *testing.T) {
	allocs := func(n float64) map[string]float64 { return map[string]float64{"allocs/op": n} }
	old := BenchDoc{Schema: Schema, Benchmarks: []Bench{
		{Name: "ZeroBase", NsPerOp: 100, Metrics: allocs(0)},
		{Name: "Steady", NsPerOp: 100, Metrics: allocs(6)},
		{Name: "Grew", NsPerOp: 100, Metrics: allocs(6)},
		{Name: "NoMetric", NsPerOp: 100},
	}}
	cur := BenchDoc{Schema: Schema, Benchmarks: []Bench{
		{Name: "ZeroBase", NsPerOp: 100, Metrics: allocs(1)},  // any alloc on a zero base regresses
		{Name: "Steady", NsPerOp: 100, Metrics: allocs(7)},    // within 1.30x
		{Name: "Grew", NsPerOp: 100, Metrics: allocs(9)},      // 1.5x: regressed
		{Name: "NoMetric", NsPerOp: 100, Metrics: allocs(50)}, // baseline has no metric: not gated
	}}
	var sb strings.Builder
	regressed := compare(&sb, old, cur, 1.30)
	want := map[string]bool{"ZeroBase": true, "Grew": true}
	if len(regressed) != len(want) {
		t.Fatalf("regressed = %v, want ZeroBase and Grew\n%s", regressed, sb.String())
	}
	for _, name := range regressed {
		if !want[name] {
			t.Fatalf("unexpected regression %q\n%s", name, sb.String())
		}
	}
	if !strings.Contains(sb.String(), "allocs/op") {
		t.Errorf("report does not show alloc counts:\n%s", sb.String())
	}
}
