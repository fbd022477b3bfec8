package report

import (
	"encoding/json"
	"fmt"
	"io"
)

// SimRunSchema versions the machine-readable simulation report mtsim -json
// emits, so trajectory tooling can detect incompatible changes.
const SimRunSchema = "repro/simrun/v1"

// SimSummary is the schedule-aware outcome of one simulation run: one
// (organization, policy) pairing scored against a seeded job mix. Durations
// are integer nanoseconds of virtual time; the two fractions are in [0, 1].
type SimSummary struct {
	Policy string `json:"policy"`
	// Org and Groups identify the PRR organization in a co-exploration
	// (front index and PRM names per PRR); absent for single-platform runs.
	Org    int        `json:"org,omitempty"`
	Groups [][]string `json:"groups,omitempty"`

	Jobs           int64   `json:"jobs"`
	Completed      int64   `json:"completed"`
	MakespanNS     int64   `json:"makespan_ns"`
	MeanWaitNS     int64   `json:"mean_wait_ns"`
	P99WaitNS      int64   `json:"p99_wait_ns"`
	MeanResponseNS int64   `json:"mean_response_ns"`
	Reconfigs      int64   `json:"reconfigs"`
	Preemptions    int64   `json:"preemptions"`
	ICAPTransfers  int64   `json:"icap_transfers"`
	ICAPBusy       float64 `json:"icap_busy"`
	Utilization    float64 `json:"utilization"`
}

// Validate checks the summary's internal consistency.
func (s *SimSummary) Validate() error {
	if s.Policy == "" {
		return fmt.Errorf("report: sim summary has no policy")
	}
	for _, v := range []struct {
		name string
		val  int64
	}{
		{"jobs", s.Jobs}, {"completed", s.Completed}, {"makespan_ns", s.MakespanNS},
		{"mean_wait_ns", s.MeanWaitNS}, {"p99_wait_ns", s.P99WaitNS},
		{"mean_response_ns", s.MeanResponseNS}, {"reconfigs", s.Reconfigs},
		{"preemptions", s.Preemptions}, {"icap_transfers", s.ICAPTransfers},
	} {
		if v.val < 0 {
			return fmt.Errorf("report: sim %s = %d is negative", v.name, v.val)
		}
	}
	if s.Completed > s.Jobs {
		return fmt.Errorf("report: sim completed %d of %d jobs", s.Completed, s.Jobs)
	}
	if s.ICAPBusy < 0 || s.ICAPBusy > 1 {
		return fmt.Errorf("report: sim ICAP busy fraction %g out of [0, 1]", s.ICAPBusy)
	}
	if s.Utilization < 0 || s.Utilization > 1 {
		return fmt.Errorf("report: sim utilization %g out of [0, 1]", s.Utilization)
	}
	return nil
}

// SimRun is the full mtsim -json report: the device and mix parameters plus
// every run's summary. Co-exploration reports are ranked: within one policy
// the p99 waiting time never decreases down the list.
type SimRun struct {
	Schema string `json:"schema"`
	Device string `json:"device,omitempty"`
	Seed   uint64 `json:"seed"`
	// Params records the command-line shape of the run (flag name → value).
	Params map[string]string `json:"params,omitempty"`
	Runs   []SimSummary      `json:"runs"`
}

// Validate checks the schema, each run, and the per-policy ranking.
func (r *SimRun) Validate() error {
	if r.Schema != SimRunSchema {
		return fmt.Errorf("report: unknown simrun schema %q", r.Schema)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("report: simrun has no runs")
	}
	for i := range r.Runs {
		if err := r.Runs[i].Validate(); err != nil {
			return fmt.Errorf("report: run %d: %w", i, err)
		}
		if i > 0 && r.Runs[i-1].Policy == r.Runs[i].Policy &&
			r.Runs[i-1].P99WaitNS > r.Runs[i].P99WaitNS {
			return fmt.Errorf("report: runs %d and %d break the per-policy p99 ranking", i-1, i)
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r *SimRun) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
