package dse

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
	"repro/internal/icap"
)

// benchPRMs is the shared deterministic workload builder (see SyntheticPRMs).
func benchPRMs(n int) []PRM { return SyntheticPRMs(n) }

func benchExplorer(b *testing.B) *Explorer {
	b.Helper()
	dev, err := device.Lookup("XC6VLX240T")
	if err != nil {
		b.Fatal(err)
	}
	return &Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
}

// BenchmarkExploreAllSequential is the seed baseline: single-threaded,
// re-pricing every group in every partition.
func BenchmarkExploreAllSequential(b *testing.B) {
	for _, n := range []int{8, 9, 10, 11} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := benchExplorer(b)
			prms := benchPRMs(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if points := e.ExploreAll(prms); len(points) != bellNumber(n) {
					b.Fatalf("points = %d", len(points))
				}
			}
		})
	}
}

// BenchmarkExploreParetoBB is the branch-and-bound engine on the constrained
// fabric, the workload pruning targets: the same Pareto front as
// Pareto(ExploreAll(...)) while most of the Bell(n) partitions die in the
// tree before any pricing. n=12-13 are far past where the brute-force
// enumeration remains practical.
func BenchmarkExploreParetoBB(b *testing.B) {
	for _, n := range []int{11, 12, 13} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := &Explorer{Device: ConstrainedDevice(), Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
			prms := ConstrainedPRMs(n)
			b.ResetTimer()
			var stats BBStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stats.PrunedFit+stats.PrunedDominated)/float64(stats.Partitions), "pruned-frac")
			b.ReportMetric(float64(stats.MaxResident), "resident-peak")
		})
	}
}

// BenchmarkExploreParetoBBDup is the symmetry collapse plus the orbit-level
// group-pricing memo on duplicate-heavy workloads: n modules over k distinct
// requirement signatures in contiguous blocks (see DuplicatePRMs). n=16
// (Bell ≈ 1.0e10) is far beyond brute force and reachable only because
// the engine walks fiber representatives and the memo collapses their group
// pricings to one per orbit-level (composition, avoid-multiset) pair:
// collapsed-frac reports the fraction of the partition space skipped as
// symmetric images, memo-hit-rate the fraction of tree edges answered from
// the memo. n=20/k=5 (232M orbit-level compositions) completes exactly in
// minutes with the memo but is still too long for a benchmark iteration; CI
// demonstrates it in a dedicated step instead.
func BenchmarkExploreParetoBBDup(b *testing.B) {
	for _, c := range []struct{ n, k int }{{12, 3}, {16, 4}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			// XC6VLX75T, not the larger bench default: the duplicate shapes
			// all place there, so the engine prices real fronts instead of
			// fit-pruning the whole space.
			dev, err := device.Lookup("XC6VLX75T")
			if err != nil {
				b.Fatal(err)
			}
			e := &Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
			prms := DuplicatePRMs(c.n, c.k)
			b.ResetTimer()
			var stats BBStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stats.CollapsedSymmetry)/float64(stats.Partitions), "collapsed-frac")
			b.ReportMetric(float64(stats.Evaluated), "evaluated")
			// Guard the ratio: a memo-off or all-distinct run has zero
			// lookups, and 0/0 would emit NaN into the benchmark line.
			if lookups := stats.MemoHits + stats.MemoMisses; lookups > 0 {
				b.ReportMetric(float64(stats.MemoHits)/float64(lookups), "memo-hit-rate")
			}
		})
	}
}

// BenchmarkMemoHit isolates the memo's hit path — canonical key build plus
// map read — the operation an n=20-scale walk performs hundreds of
// millions of times. The allocs/op it reports must stay 0 (gated in CI).
func BenchmarkMemoHit(b *testing.B) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		b.Fatal(err)
	}
	e := &Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
	prms := DuplicatePRMs(6, 2)
	ct := classifyPRMs(prms)
	r := &bbRun{
		e:       e,
		prms:    prms,
		n:       len(prms),
		bit:     core.NewBitstreamModel(e.Device.Params),
		classOf: ct.classOf,
		memo:    true,
	}
	s := &bbState{run: r, memo: newGroupMemo()}
	s.members = [][]int{{0, 1}, {2, 3}}
	s.placed = make([]floorplan.Region, 2)
	ev := s.priceEdge(0)
	if !ev.feasible {
		b.Fatalf("warmup pricing infeasible: %s", ev.errMsg)
	}
	s.placed[0] = ev.region
	s.priceEdge(1) // store the entry, grow the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.priceEdge(1)
	}
	b.StopTimer()
	if s.memoHits == 0 {
		b.Fatal("benchmark loop never hit the memo")
	}
}
