package dse

import (
	"math/rand"
	"testing"
	"time"
)

// dominatedBound is the oracle for dominanceThreshold: it reports whether
// some front point strictly dominates every design point with tilesLB <=
// TotalTiles, reconfigLB <= WorstReconfig and MinRU <= minRUub, by scanning
// the front point by point.
func dominatedBound(f *ParetoFront, tilesLB int, reconfigLB time.Duration, minRUub float64) bool {
	for i := range f.pts {
		q := &f.pts[i].dp
		if q.TotalTiles > tilesLB {
			// The front is sorted by TotalTiles ascending (frontLess), and a
			// dominating point needs TotalTiles <= tilesLB, so nothing after
			// this one can qualify.
			return false
		}
		if q.WorstReconfig <= reconfigLB && q.MinRU >= minRUub &&
			(q.TotalTiles < tilesLB || q.WorstReconfig < reconfigLB || q.MinRU > minRUub) {
			return true
		}
	}
	return false
}

// TestDominanceThresholdMatchesOracle: the branch-and-bound engine prunes a
// subtree when its tiles bound reaches dominanceThreshold, so for every
// front and every bound box that comparison must give the oracle's answer.
// Objectives are drawn from small ranges so fronts carry exact ties on every
// axis, and the probes hit those tie values.
func TestDominanceThresholdMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ru := []float64{10, 25, 50, 75, 100}
	draw := func() (int, time.Duration, float64) {
		return rng.Intn(8), time.Duration(rng.Intn(5)) * time.Microsecond, ru[rng.Intn(len(ru))]
	}
	pruned := 0
	for trial := 0; trial < 20000; trial++ {
		f := &ParetoFront{}
		for i, n := 0, rng.Intn(7); i < n; i++ {
			tiles, rec, minRU := draw()
			f.Add(DesignPoint{Feasible: true, TotalTiles: tiles, WorstReconfig: rec, MinRU: minRU}, uint64(i))
		}
		for probe := 0; probe < 4; probe++ {
			tiles, rec, minRU := draw()
			want := dominatedBound(f, tiles, rec, minRU)
			if got := tiles >= f.dominanceThreshold(rec, minRU); got != want {
				t.Fatalf("box (tiles>=%d, reconfig>=%v, minRU<=%v) over front %+v: threshold says %v, oracle %v",
					tiles, rec, minRU, f.Points(), got, want)
			}
			if want {
				pruned++
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no probe was dominated: the test never exercised the prune direction")
	}
}
