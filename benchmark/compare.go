package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints one row per (workload, end-to-end metric) found in both
// result files: each side's median and quartiles, how much worse side b is
// than side a as a share of a's median, and a verdict against the metric's
// bound. The verdict is "unresolved" when either side's quartile spread,
// as a share of its median, exceeds the bound: the runs cannot then tell a
// regression of that size from noise.
func compare(w io.Writer, specPath, aPath, bPath string) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%d runs, %s, nproc=%d)\nb: %s (%d runs, %s, nproc=%d)\n",
		aPath, len(a.Runs), a.Machine.CPUModel, a.Machine.NProc, bPath, len(b.Runs), b.Machine.CPUModel, b.Machine.NProc)
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "a_median", "a_q1", "a_q3", "b_median", "b_q1", "b_q3", "worse", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq, bq := quartiles(av), quartiles(bv)
			worse := (bq[1] - aq[1]) / aq[1]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case (aq[2]-aq[0])/aq[1] > m.Bound || (bq[2]-bq[0])/bq[1] > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "over"
			}
			fmt.Fprintf(w, "%-20s %-22s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.3f %6.2f  %s\n",
				wl, m.Name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2], worse, m.Bound, verdict)
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// values collects one metric over a file's runs of a workload.
func values(f resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method); a single value is all three.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
