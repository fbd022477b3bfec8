// Command benchjson converts `go test -bench` text output into a stable JSON
// document and compares two such documents for regressions, so CI can keep a
// committed baseline and fail when a benchmark slows down.
//
// Convert (reads stdin or -in, writes -out or stdout):
//
//	go test -bench=. ./internal/dse/ | benchjson -out BENCH_dse.json
//
// Compare (exits non-zero when any benchmark present in both files got
// slower by more than -threshold times the baseline ns/op, or grew its
// allocs/op past the same threshold when both sides carry the metric —
// -benchmem runs record it automatically):
//
//	benchjson -compare BENCH_baseline.json BENCH_dse.json -threshold 1.30
//
// A zero-alloc baseline is gated strictly: any new allocation regresses.
// Each benchmark keeps the GOMAXPROCS it ran at (its name's "-N" suffix) as
// procs, and the comparison notes every row whose procs differ from the
// baseline's without changing the verdict.
// Benchmarks only present on one side are reported but never fail the
// comparison: benchmark sets may grow, and one-shot (-benchtime=1x) runs of
// the biggest cases are too noisy to gate until they have a baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchDoc is the committed benchmark document.
type BenchDoc struct {
	Schema     string  `json:"schema"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark result line. Procs is the GOMAXPROCS the line ran
// at, from the name's "-N" suffix (none means 1); 0 means a document
// recorded before the field existed.
type Bench struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Schema identifies the document format.
const Schema = "repro/bench/v1"

// benchLine matches "BenchmarkName-8   12   345 ns/op   0.9 extra-metric ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse reads `go test -bench` text output into a BenchDoc.
func parse(r io.Reader) (BenchDoc, error) {
	doc := BenchDoc{Schema: Schema}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{Name: m[1], Procs: 1, Iterations: iters}
		if m[2] != "" {
			if b.Procs, err = strconv.Atoi(m[2]); err != nil {
				return doc, fmt.Errorf("%s: bad GOMAXPROCS suffix %q", b.Name, m[2])
			}
		}
		// The tail alternates "value unit": "123 ns/op 0.94 pruned-frac".
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return doc, fmt.Errorf("%s: bad value %q", b.Name, fields[i])
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = v
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// A b.ReportMetric of a 0/0 ratio renders "NaN", which
				// json.Marshal rejects outright. Drop the metric and keep the
				// benchmark: a non-finite ratio carries no gateable signal.
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
		if b.NsPerOp > 0 {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool { return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name })
	return doc, nil
}

// procsString renders a recorded GOMAXPROCS, "?" where none was recorded.
func procsString(p int) string {
	if p == 0 {
		return "?"
	}
	return strconv.Itoa(p)
}

func load(path string) (BenchDoc, error) {
	var doc BenchDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return doc, nil
}

// compare reports per-benchmark ratios and returns the names regressing past
// the threshold on ns/op or — when both sides carry the metric — allocs/op.
func compare(w io.Writer, old, new BenchDoc, threshold float64) []string {
	base := map[string]Bench{}
	for _, b := range old.Benchmarks {
		base[b.Name] = b
	}
	var regressed []string
	seen := map[string]bool{}
	for _, b := range new.Benchmarks {
		seen[b.Name] = true
		o, ok := base[b.Name]
		if !ok {
			fmt.Fprintf(w, "  new       %-60s %14.0f ns/op (no baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		ratio := b.NsPerOp / o.NsPerOp
		bad := ratio > threshold
		allocNote := ""
		if oa, oHas := o.Metrics["allocs/op"]; oHas {
			if na, nHas := b.Metrics["allocs/op"]; nHas {
				allocNote = fmt.Sprintf(", %.0f -> %.0f allocs/op", oa, na)
				// new > old handles a zero-alloc baseline, where any ratio
				// is infinite: growing past it at all is a regression.
				if na > oa*threshold && na > oa {
					bad = true
					allocNote += " ALLOCS"
				}
			}
		}
		procsNote := ""
		if o.Procs != b.Procs {
			procsNote = fmt.Sprintf(", procs %s -> %s", procsString(o.Procs), procsString(b.Procs))
		}
		status := "ok"
		if bad {
			status = "REGRESSED"
			regressed = append(regressed, b.Name)
		}
		fmt.Fprintf(w, "  %-9s %-60s %14.0f -> %14.0f ns/op (%.2fx)%s%s\n", status, b.Name, o.NsPerOp, b.NsPerOp, ratio, allocNote, procsNote)
	}
	for _, o := range old.Benchmarks {
		if !seen[o.Name] {
			fmt.Fprintf(w, "  missing   %-60s (in baseline only)\n", o.Name)
		}
	}
	return regressed
}

func main() {
	in := flag.String("in", "", "bench text input file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	threshold := flag.Float64("threshold", 1.30, "compare mode: fail when new ns/op exceeds threshold * baseline")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchjson [-in bench.txt] [-out bench.json]\n       benchjson -compare baseline.json current.json [-threshold 1.30]\n")
		flag.PrintDefaults()
	}
	compareMode := flag.Bool("compare", false, "compare two bench JSON files: benchjson -compare old.json new.json")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		oldDoc, err := load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newDoc, err := load(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchjson: %s vs %s (threshold %.2fx)\n", flag.Arg(0), flag.Arg(1), *threshold)
		regressed := compare(os.Stdout, oldDoc, newDoc, *threshold)
		if len(regressed) > 0 {
			fatal(fmt.Errorf("%d benchmark(s) regressed past %.2fx: %s",
				len(regressed), *threshold, strings.Join(regressed, ", ")))
		}
		return
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
