package sim

import (
	"fmt"
	"math"
	"time"
)

// Arrival selects a Mix's arrival process.
type Arrival string

const (
	// ArrivalUniform spaces jobs by a gap drawn uniformly in [0, 2*MeanGap].
	ArrivalUniform Arrival = "uniform"
	// ArrivalBursty packs Burst jobs at a quarter of the mean gap, then
	// pauses four mean gaps before the next burst.
	ArrivalBursty Arrival = "bursty"
	// ArrivalSimultaneous releases every job at time zero.
	ArrivalSimultaneous Arrival = "simultaneous"
)

// Mix is a reproducible job-mix specification. The same Mix always
// generates the same job list: the generator is an integer-only xorshift64
// stream, so there is no floating-point or platform variance.
type Mix struct {
	Jobs int
	// Seed selects the pseudo-random stream; zero means 1.
	Seed uint64
	// Arrival is the arrival process; empty means ArrivalUniform.
	Arrival Arrival
	// MeanGap is the mean inter-arrival time.
	MeanGap time.Duration
	// MeanExec is the mean service time; zero defaults to 500µs. Both means
	// are at most MaxMixMean, and jointly with Jobs within MaxMixLoad.
	MeanExec time.Duration
	// Burst is the bursty-process batch size; zero defaults to 8.
	Burst int
	// Weights biases the PRM-class draw (one weight per class; nil means
	// uniform).
	Weights []int
	// PriorityLevels > 1 draws each job's priority uniformly from
	// [0, PriorityLevels); otherwise every job has priority 0.
	PriorityLevels int
}

// MaxMixMean caps MeanGap and MeanExec: Generate scales a mean by up to
// 2000/1000 on the int64-nanosecond clock, and that product must not wrap.
const MaxMixMean = 1000 * time.Hour

// MaxMixLoad caps Jobs² × (4·MeanGap + 2·MeanExec). Every arrival step is at
// most 4·MeanGap and every execution time at most 2·MeanExec, so Jobs ×
// (4·MeanGap + 2·MeanExec) bounds the last arrival plus the total execution
// time, and Jobs times that bounds what the mix adds to the wait and
// response sums. The cap keeps arrivals non-decreasing and holds that share
// to half the int64-nanosecond clock, leaving the other half to
// reconfiguration time.
const MaxMixLoad = time.Duration(1 << 62)

// Validate reports the error Generate would return for nPRMs PRM classes,
// without generating the jobs.
func (m Mix) Validate(nPRMs int) error {
	_, _, err := m.check(nPRMs)
	return err
}

// check validates the mix and returns the class weights and their total;
// uniform weights come back nil, with nPRMs as the total.
func (m Mix) check(nPRMs int) ([]int, int, error) {
	if nPRMs <= 0 {
		return nil, 0, fmt.Errorf("sim: mix needs at least one PRM class")
	}
	if m.Jobs < 0 {
		return nil, 0, fmt.Errorf("sim: negative job count %d", m.Jobs)
	}
	if m.MeanGap < 0 || m.MeanExec < 0 {
		return nil, 0, fmt.Errorf("sim: negative mix durations")
	}
	if m.MeanGap > MaxMixMean || m.MeanExec > MaxMixMean {
		return nil, 0, fmt.Errorf("sim: mix means %v / %v exceed the %v limit", m.MeanGap, m.MeanExec, MaxMixMean)
	}
	if jobs := time.Duration(m.Jobs); jobs > 0 && 4*m.MeanGap+2*m.meanExec() > MaxMixLoad/jobs/jobs {
		return nil, 0, fmt.Errorf("sim: %d jobs at mean gap %v and mean exec %v overrun the simulated clock (jobs² × (4·gap + 2·exec) must stay within %v)",
			m.Jobs, m.MeanGap, m.meanExec(), MaxMixLoad)
	}
	switch m.Arrival {
	case "", ArrivalUniform, ArrivalBursty, ArrivalSimultaneous:
	default:
		return nil, 0, fmt.Errorf("sim: unknown arrival process %q", m.Arrival)
	}
	weights := m.Weights
	if len(weights) == 0 {
		return nil, nPRMs, nil // uniform: Generate draws the class directly
	}
	if len(weights) != nPRMs {
		return nil, 0, fmt.Errorf("sim: %d weights for %d PRM classes", len(weights), nPRMs)
	}
	total := 0
	for i, w := range weights {
		if w < 0 {
			return nil, 0, fmt.Errorf("sim: negative weight for PRM class %d", i)
		}
		if w > math.MaxInt-total {
			return nil, 0, fmt.Errorf("sim: PRM-class weights sum past %d", math.MaxInt)
		}
		total += w
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("sim: all PRM-class weights are zero")
	}
	return weights, total, nil
}

// meanExec is MeanExec with its 500µs default applied.
func (m Mix) meanExec() time.Duration {
	if m.MeanExec == 0 {
		return 500 * time.Microsecond
	}
	return m.MeanExec
}

// Generate produces the job list for a platform with nPRMs PRM classes.
func (m Mix) Generate(nPRMs int) ([]Job, error) {
	weights, total, err := m.check(nPRMs)
	if err != nil {
		return nil, err
	}

	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	meanExec := m.meanExec()
	burst := m.Burst
	if burst <= 0 {
		burst = 8
	}

	jobs := make([]Job, m.Jobs)
	var t time.Duration
	for i := range jobs {
		prm := int(next() % uint64(total))
		if weights != nil {
			pick := prm
			prm = 0
			for pick >= weights[prm] {
				pick -= weights[prm]
				prm++
			}
		}
		exec := meanExec * time.Duration(4+next()%13) / 8
		if exec <= 0 {
			exec = 1
		}
		prio := 0
		if m.PriorityLevels > 1 {
			prio = int(next() % uint64(m.PriorityLevels))
		}
		jobs[i] = Job{ID: i, PRM: prm, Arrival: t, Exec: exec, Priority: prio}
		switch m.Arrival {
		case ArrivalSimultaneous:
			// every arrival at t=0
		case ArrivalBursty:
			if (i+1)%burst == 0 {
				t += 4 * m.MeanGap
			} else {
				t += m.MeanGap / 4
			}
		default:
			t += m.MeanGap * time.Duration(next()%2001) / 1000
		}
	}
	return jobs, nil
}
