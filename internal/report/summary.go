package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// RunSummarySchema versions the machine-readable per-run summary so
// benchmark-trajectory tooling can detect incompatible changes.
const RunSummarySchema = "repro/run-summary/v1"

// RunSummary is the machine-readable record one command run emits: which
// tool ran against which device with which parameters, and every metric the
// observability registry gathered. CI uploads these as build artifacts so
// cache hit rates, partition throughput and window-search effort can be
// tracked across PRs.
type RunSummary struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Device string `json:"device,omitempty"`
	// UnixNano is the wall-clock time the summary was built; zero in golden
	// tests so output stays reproducible.
	UnixNano int64 `json:"unix_nano,omitempty"`
	// Params records the command-line shape of the run (flag name → value).
	Params map[string]string `json:"params,omitempty"`
	// Metrics is every registry series, sorted by name then labels.
	Metrics []SummaryMetric `json:"metrics"`
}

// SummaryMetric is one metric series in the summary.
type SummaryMetric struct {
	Name      string            `json:"name"`
	Labels    map[string]string `json:"labels,omitempty"`
	Kind      string            `json:"kind"`
	Value     int64             `json:"value,omitempty"`
	Histogram *HistogramJSON    `json:"histogram,omitempty"`
}

// HistogramJSON is the JSON encoding of a histogram snapshot. Bounds holds
// the finite inclusive upper bounds; Counts has one more entry than Bounds,
// the last being the implicit +Inf overflow bucket (JSON cannot encode
// +Inf, so the overflow bound stays implicit).
type HistogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Validate checks the bucket encoding invariants after decoding.
func (h *HistogramJSON) Validate() error {
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("report: histogram has %d counts for %d bounds, want %d (overflow bucket)",
			len(h.Counts), len(h.Bounds), len(h.Bounds)+1)
	}
	for i := 1; i < len(h.Bounds); i++ {
		if h.Bounds[i] <= h.Bounds[i-1] {
			return fmt.Errorf("report: histogram bounds not increasing at %d (%g after %g)",
				i, h.Bounds[i], h.Bounds[i-1])
		}
	}
	var total int64
	for _, c := range h.Counts {
		if c < 0 {
			return fmt.Errorf("report: negative bucket count %d", c)
		}
		total += c
	}
	if total != h.Count {
		return fmt.Errorf("report: bucket counts sum to %d, count says %d", total, h.Count)
	}
	return nil
}

// HistogramFromSnapshot converts an observability snapshot to its JSON form.
func HistogramFromSnapshot(s obs.HistogramSnapshot) *HistogramJSON {
	return &HistogramJSON{Bounds: s.Bounds, Counts: s.Counts, Count: s.Count, Sum: s.Sum}
}

// NewRunSummary gathers every series in the registry into a summary for the
// named tool. Callers fill Device, Params and UnixNano before writing.
func NewRunSummary(tool string, reg *obs.Registry) *RunSummary {
	s := &RunSummary{Schema: RunSummarySchema, Tool: tool}
	for _, smp := range reg.Gather() {
		m := SummaryMetric{Name: smp.Name, Kind: smp.Kind.String()}
		if len(smp.Labels) > 0 {
			m.Labels = make(map[string]string, len(smp.Labels))
			for _, l := range smp.Labels {
				m.Labels[l.Key] = l.Value
			}
		}
		if smp.Hist != nil {
			m.Histogram = HistogramFromSnapshot(*smp.Hist)
		} else {
			m.Value = smp.Value
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s
}

// WriteJSON renders the summary as indented JSON. Output is deterministic
// for a given summary: Gather sorts series, and map keys are sorted by
// encoding/json.
func (s *RunSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the summary JSON to path.
func (s *RunSummary) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRunSummary parses a summary JSON and validates its histograms.
func ReadRunSummary(r io.Reader) (*RunSummary, error) {
	var s RunSummary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("report: decoding run summary: %w", err)
	}
	if s.Schema != RunSummarySchema {
		return nil, fmt.Errorf("report: unknown run-summary schema %q", s.Schema)
	}
	for _, m := range s.Metrics {
		if m.Histogram != nil {
			if err := m.Histogram.Validate(); err != nil {
				return nil, fmt.Errorf("report: metric %s: %w", m.Name, err)
			}
		}
	}
	return &s, nil
}
