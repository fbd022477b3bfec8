package dse

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestClassifyPRMs: classes are deterministic, ordered by signature, and
// independent of PRM names and list order.
func TestClassifyPRMs(t *testing.T) {
	prms := []PRM{
		{Name: "A", Req: core.Requirements{LUTFFPairs: 700, LUTs: 640, FFs: 520}},
		{Name: "B", Req: core.Requirements{LUTFFPairs: 300, LUTs: 280, FFs: 250}},
		{Name: "C", Req: core.Requirements{LUTFFPairs: 700, LUTs: 640, FFs: 520}},
		{Name: "D", Req: core.Requirements{LUTFFPairs: 300, LUTs: 280, FFs: 250}},
		{Name: "E", Req: core.Requirements{LUTFFPairs: 300, LUTs: 280, FFs: 250, DSPs: 1}},
	}
	ct := classifyPRMs(prms)
	if got, want := ct.classes(), 3; got != want {
		t.Fatalf("classes = %d, want %d", got, want)
	}
	// Classes sort by signature tuple: B/D (300) < E (300+DSP) < A/C (700).
	if want := []int{2, 0, 2, 0, 1}; !reflect.DeepEqual(ct.classOf, want) {
		t.Fatalf("classOf = %v, want %v", ct.classOf, want)
	}
	if want := []int{2, 1, 2}; !reflect.DeepEqual(ct.count, want) {
		t.Fatalf("count = %v, want %v", ct.count, want)
	}
	if want := []int{1, 4, 0}; !reflect.DeepEqual(ct.rep, want) {
		t.Fatalf("rep = %v, want %v", ct.rep, want)
	}
	if !ct.hasDuplicates() {
		t.Fatal("hasDuplicates = false with duplicated signatures")
	}

	// Renaming must not change the classification.
	renamed := append([]PRM(nil), prms...)
	for i := range renamed {
		renamed[i].Name = "X"
	}
	if ct2 := classifyPRMs(renamed); !reflect.DeepEqual(ct2, ct) {
		t.Fatal("classification depends on PRM names")
	}

	distinct := SyntheticPRMs(5)
	if ct := classifyPRMs(distinct); ct.hasDuplicates() || ct.classes() != 5 {
		t.Fatalf("SyntheticPRMs(5): classes=%d hasDuplicates=%v, want 5 distinct", ct.classes(), ct.hasDuplicates())
	}
}

// TestDuplicatePRMsShape: the duplicate-heavy workload has exactly
// min(k, n) distinct signatures.
func TestDuplicatePRMsShape(t *testing.T) {
	for _, tc := range []struct{ n, k, classes int }{
		{12, 3, 3}, {12, 1, 1}, {10, 4, 4}, {20, 5, 5}, {3, 7, 3}, {9, 9, 9},
	} {
		ct := classifyPRMs(DuplicatePRMs(tc.n, tc.k))
		if ct.classes() != tc.classes {
			t.Errorf("DuplicatePRMs(%d,%d): %d classes, want %d", tc.n, tc.k, ct.classes(), tc.classes)
		}
	}
}

// checkSymmetryEquivalence asserts the core exactness property: the
// symmetry-enabled branch-and-bound front is element-for-element identical to
// the flat Pareto front, and the stats invariant holds with a non-trivial
// collapse.
func checkSymmetryEquivalence(t *testing.T, e *Explorer, prms []PRM, wantCollapse bool) {
	t.Helper()
	want := Pareto(e.ExploreAll(prms))
	for _, opts := range []BBOptions{
		{},
		{DominancePrune: true},
		{DominancePrune: true, splitDepth: 3, Workers: 3},
	} {
		got, stats, err := e.ExploreParetoBB(context.Background(), prms, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opts=%+v: symmetric front differs\n got %d points: %+v\nwant %d points: %+v",
				opts, len(got), got, len(want), want)
		}
		if total := stats.Evaluated + stats.PrunedFit + stats.PrunedDominated + stats.CollapsedSymmetry; total != stats.Partitions {
			t.Errorf("opts=%+v: evaluated %d + pruned %d+%d + collapsed %d != Bell(n) %d",
				opts, stats.Evaluated, stats.PrunedFit, stats.PrunedDominated,
				stats.CollapsedSymmetry, stats.Partitions)
		}
		if wantCollapse && stats.CollapsedSymmetry == 0 {
			t.Errorf("opts=%+v: no partitions collapsed on a duplicate-heavy workload", opts)
		}
	}
}

// TestSymmetryMatchesFlat: duplicate-heavy workloads across two catalog
// devices; the symmetric streaming front must be bit-identical to
// Pareto(ExploreAll). Run under -race this also exercises the floor state in
// the parallel subtree workers.
func TestSymmetryMatchesFlat(t *testing.T) {
	for _, devName := range []string{"XC6VLX75T", "XC5VLX110T"} {
		for _, nk := range []struct{ n, k int }{{6, 1}, {7, 2}, {8, 3}, {9, 2}} {
			prms := DuplicatePRMs(nk.n, nk.k)
			checkSymmetryEquivalence(t, explorer(t, devName), prms, true)
		}
	}
}

// TestSymmetryMatchesFlatShuffledNames: renaming and reordering duplicate
// PRMs must not change the expanded front's objective multiset (order of
// equal-objective points tracks element positions, so compare objectives).
func TestSymmetryMatchesFlatShuffledNames(t *testing.T) {
	prms := DuplicatePRMs(8, 2)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(prms), func(i, j int) { prms[i], prms[j] = prms[j], prms[i] })
	for i := range prms {
		prms[i].Name = "Z" + prms[i].Name
	}
	checkSymmetryEquivalence(t, explorer(t, "XC6VLX75T"), prms, true)
}

// TestSymmetryMatchesFlatRandom: randomized duplicate workloads — a few
// random shapes, each instantiated several times in random order, including
// infeasible-prone sizes from randomPRMs.
func TestSymmetryMatchesFlatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, devName := range []string{"XC5VLX110T", "XC6VLX75T"} {
		for trial := 0; trial < 4; trial++ {
			k := 1 + rng.Intn(3)
			shapes := randomPRMs(rng, k)
			n := k + 2 + rng.Intn(5-k)
			prms := make([]PRM, 0, n)
			for i := 0; i < n; i++ {
				prms = append(prms, PRM{Name: shapes[i%k].Name, Req: shapes[i%k].Req})
			}
			rng.Shuffle(len(prms), func(i, j int) { prms[i], prms[j] = prms[j], prms[i] })
			// Oversized random shapes can die to the fit bound before any
			// symmetry floor applies, so no collapse is asserted here — only
			// exactness.
			checkSymmetryEquivalence(t, explorer(t, devName), prms, false)
		}
	}
}

// TestSymmetryMatchesFlatConstrained: the collapse composes with the fit and
// dominance bounds on the constrained fabric, where most subtrees die to the
// DSP+BRAM window bound.
func TestSymmetryMatchesFlatConstrained(t *testing.T) {
	prms := ConstrainedPRMs(8)
	// Duplicate the first template's instances exactly: indexes 0,3,6 share
	// requirements when the per-index variation is removed.
	for _, i := range []int{3, 6} {
		prms[i].Req = prms[0].Req
	}
	checkSymmetryEquivalence(t, constrainedExplorer(), prms, true)
}

// TestSymmetryOff: SymmetryOff explores the full space (no collapse) and
// still matches the flat front.
func TestSymmetryOff(t *testing.T) {
	prms := DuplicatePRMs(7, 2)
	e := explorer(t, "XC6VLX75T")
	want := Pareto(e.ExploreAll(prms))
	got, stats, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{Symmetry: SymmetryOff, DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CollapsedSymmetry != 0 {
		t.Errorf("SymmetryOff collapsed %d partitions", stats.CollapsedSymmetry)
	}
	if stats.Classes != 2 {
		t.Errorf("Classes = %d, want 2", stats.Classes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SymmetryOff front differs\n got %+v\nwant %+v", got, want)
	}
}

// TestSymmetryCollapseRatio is the acceptance bound: on the n=12, k=3
// duplicate workload the symmetric engine must price at most 5% of the
// partitions the full-space engine prices, with identical fronts. The
// workload's block layout is load-bearing: with the same [4,4,4] multiset
// interleaved round-robin the exact fiber count is 374,760 (8.89% of
// Bell(12)), so no sound fiber-level collapse can reach 5% there; contiguous
// blocks admit far fewer orderings of the per-group class vectors and the
// engine prices ~1.2% (see DESIGN.md §13).
func TestSymmetryCollapseRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("n=12 exploration in -short mode")
	}
	prms := DuplicatePRMs(12, 3)
	e := explorer(t, "XC6VLX75T")
	ctx := context.Background()

	off, offStats, err := e.ExploreParetoBB(ctx, prms, BBOptions{Symmetry: SymmetryOff})
	if err != nil {
		t.Fatal(err)
	}
	on, onStats, err := e.ExploreParetoBB(ctx, prms, BBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("fronts differ: symmetric %d points, full %d points", len(on), len(off))
	}
	if onStats.Evaluated*20 > offStats.Evaluated {
		t.Errorf("symmetric engine evaluated %d of %d partitions (%.2f%%); want <= 5%%",
			onStats.Evaluated, offStats.Evaluated, 100*float64(onStats.Evaluated)/float64(offStats.Evaluated))
	}
	t.Logf("n=12 k=3: evaluated %d vs %d (%.2f%%), collapsed %d of %d partitions",
		onStats.Evaluated, offStats.Evaluated, 100*float64(onStats.Evaluated)/float64(offStats.Evaluated),
		onStats.CollapsedSymmetry, onStats.Partitions)
}

// TestExpandSymmetricIdentity: with all-distinct signatures the expansion is
// the identity, and with duplicates expanding a front twice changes nothing
// (members of a fiber expand to the same fiber).
func TestExpandSymmetricIdentity(t *testing.T) {
	e := explorer(t, "XC6VLX75T")

	distinct := SyntheticPRMs(5)
	front := Pareto(e.ExploreAll(distinct))
	if got := ExpandSymmetric(distinct, front); !reflect.DeepEqual(got, front) {
		t.Error("ExpandSymmetric changed a front with all-distinct signatures")
	}

	dup := DuplicatePRMs(6, 2)
	dupFront := Pareto(e.ExploreAll(dup))
	once := ExpandSymmetric(dup, dupFront)
	if !reflect.DeepEqual(once, dupFront) {
		t.Error("expanding an already-flat front changed it")
	}
	if got := ExpandSymmetric(dup, nil); got != nil {
		t.Errorf("ExpandSymmetric(nil front) = %v", got)
	}
}

// TestSymmetryCallbackDelivery: callback mode delivers only representatives —
// every delivered point canonical, and expanding the delivered feasible set
// reproduces the flat feasible set.
func TestSymmetryCallbackDelivery(t *testing.T) {
	prms := DuplicatePRMs(6, 2)
	e := explorer(t, "XC6VLX75T")
	ct := classifyPRMs(prms)

	var reps []DesignPoint
	stats, err := e.ExploreBB(context.Background(), prms, BBOptions{DisableFitPrune: true}, func(dp DesignPoint) bool {
		reps = append(reps, dp)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(reps)) != stats.Evaluated {
		t.Fatalf("delivered %d points, stats.Evaluated = %d", len(reps), stats.Evaluated)
	}
	if stats.CollapsedSymmetry == 0 {
		t.Fatal("no collapse on duplicate workload")
	}
	seen := map[string]int64{}
	for _, dp := range reps {
		seen[fiberSig(&ct, dp.Groups)]++
	}
	// Every fiber of the full space must be covered by >= 1 representative.
	all := map[string]bool{}
	forEachPartition(len(prms), func(groups [][]int) {
		all[fiberSig(&ct, groups)] = true
	})
	if len(seen) != len(all) {
		t.Errorf("representatives cover %d of %d fibers", len(seen), len(all))
	}
}
