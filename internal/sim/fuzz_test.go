package sim

import (
	"math"
	"testing"
	"time"
)

// fuzzGenerateJobs caps the mixes FuzzMix generates, so one input never
// allocates much; larger accepted mixes are checked by arithmetic.
const fuzzGenerateJobs = 4096

// FuzzMix checks the contract between Mix.Validate and Generate: whatever
// Validate(n) accepts, Generate(n) produces, with arrivals non-decreasing
// from 0, every Exec positive, every PRM index in [0, n) and of positive
// weight, and the last arrival plus the total execution time inside the
// int64-nanosecond clock. nw (mod 4) is the number of weights w0..w2 the
// mix carries, 0 meaning uniform. The seeds are mtsim's default mix, the
// mixes the service tests send, and each input that has failed the target.
func FuzzMix(f *testing.F) {
	us := int64(time.Microsecond)
	f.Add(3, 300, uint64(1), "bursty", 100*us, 500*us, 0, 3, uint8(0), 0, 0, 0)
	f.Add(3, 400, uint64(42), "bursty", 50*us, 200*us, 8, 1, uint8(0), 0, 0, 0)
	f.Add(3, 200, uint64(11), "uniform", 30*us, 120*us, 0, 0, uint8(3), 5, 1, 0)
	f.Add(2, 1000, uint64(7), "simultaneous", int64(0), int64(0), 0, 4, uint8(2), 1, 3, 0)
	// Uniform weights were once materialized, one int per class.
	f.Add(math.MaxInt, 10, uint64(1), "", us, us, 0, 0, uint8(0), 0, 0, 0)
	// Weights summing past MaxInt wrapped the draw's total.
	f.Add(3, 10, uint64(1), "", us, us, 0, 0, uint8(3), 0, math.MaxInt, 2)

	f.Fuzz(func(t *testing.T, n, jobs int, seed uint64, arrival string, gap, exec int64,
		burst, prio int, nw uint8, w0, w1, w2 int) {
		m := Mix{
			Jobs: jobs, Seed: seed, Arrival: Arrival(arrival),
			MeanGap: time.Duration(gap), MeanExec: time.Duration(exec),
			Burst: burst, PriorityLevels: prio,
		}
		if k := nw % 4; k > 0 {
			m.Weights = []int{w0, w1, w2}[:k]
		}
		if m.Validate(n) != nil {
			return
		}
		sum := 0
		for _, w := range m.Weights {
			if w > math.MaxInt-sum {
				t.Fatalf("accepted weights %v, whose sum wraps", m.Weights)
			}
			sum += w
		}
		if m.Jobs > fuzzGenerateJobs {
			// Every arrival step is at most 4·MeanGap and every Exec at most
			// 2·MeanExec, so this product bounds the last arrival plus the
			// total execution time.
			if 4*m.MeanGap+2*m.meanExec() > math.MaxInt64/time.Duration(m.Jobs) {
				t.Fatalf("accepted %d jobs at gap %v, exec %v: the clock can wrap",
					m.Jobs, m.MeanGap, m.meanExec())
			}
			return
		}
		got, err := m.Generate(n)
		if err != nil {
			t.Fatalf("Validate accepted what Generate rejects: %v", err)
		}
		if len(got) != m.Jobs {
			t.Fatalf("generated %d jobs, want %d", len(got), m.Jobs)
		}
		var last, total time.Duration
		for i, j := range got {
			if j.Arrival < last {
				t.Fatalf("job %d arrives at %v, before %v", i, j.Arrival, last)
			}
			last = j.Arrival
			if j.Exec <= 0 {
				t.Fatalf("job %d has Exec %v", i, j.Exec)
			}
			if j.PRM < 0 || j.PRM >= n || (m.Weights != nil && m.Weights[j.PRM] == 0) {
				t.Fatalf("job %d draws PRM %d of %d (weights %v)", i, j.PRM, n, m.Weights)
			}
			if j.Exec > math.MaxInt64-total {
				t.Fatalf("total exec wraps at job %d", i)
			}
			total += j.Exec
		}
		if total > math.MaxInt64-last {
			t.Fatalf("last arrival %v plus total exec %v wraps", last, total)
		}
	})
}
