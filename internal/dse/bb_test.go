package dse

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/icap"
)

// constrainedExplorer pairs ConstrainedDevice with the standard estimator.
func constrainedExplorer() *Explorer {
	return &Explorer{Device: ConstrainedDevice(), Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
}

// TestExploreParetoMatchesFlat is the exact-equivalence property: on two
// devices, for synthetic workloads up to n=9, the branch-and-bound streaming
// front is element-for-element identical to Pareto(ExploreAll(prms)) — same
// points, same deterministic order — with dominance pruning off and on, and
// across split depths. Run under -race this also exercises the subtree
// workers sharing the run state.
func TestExploreParetoMatchesFlat(t *testing.T) {
	for _, devName := range []string{"XC6VLX75T", "XC5VLX110T"} {
		for _, n := range []int{1, 2, 5, 9} {
			prms := SyntheticPRMs(n)
			e := explorer(t, devName)
			want := Pareto(e.ExploreAll(prms))
			for _, opts := range []BBOptions{
				{},
				{DominancePrune: true},
				{DominancePrune: true, splitDepth: 2},
				{splitDepth: 4, Workers: 3},
			} {
				got, stats, err := e.ExploreParetoBB(context.Background(), prms, opts)
				if err != nil {
					t.Fatalf("%s n=%d opts=%+v: %v", devName, n, opts, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s n=%d opts=%+v: front differs\n got %d points: %+v\nwant %d points: %+v",
						devName, n, opts, len(got), got, len(want), want)
				}
				if total := stats.Evaluated + stats.PrunedFit + stats.PrunedDominated + stats.CollapsedSymmetry; total != stats.Partitions {
					t.Errorf("%s n=%d opts=%+v: evaluated %d + pruned %d+%d + collapsed %d != Bell(n) %d",
						devName, n, opts, stats.Evaluated, stats.PrunedFit, stats.PrunedDominated,
						stats.CollapsedSymmetry, stats.Partitions)
				}
			}
		}
	}
}

// TestExploreParetoMatchesFlatRandom repeats the equivalence property on
// randomized PRM sets, which include oversized (unplaceable) modules that
// drive the fit bound and infeasible partitions.
func TestExploreParetoMatchesFlatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, devName := range []string{"XC5VLX110T", "XC6VLX75T"} {
		for trial := 0; trial < 4; trial++ {
			n := 3 + rng.Intn(4)
			prms := randomPRMs(rng, n)
			e := explorer(t, devName)
			want := Pareto(e.ExploreAll(prms))
			got, _, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
			if err != nil {
				t.Fatalf("%s trial %d: %v", devName, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trial %d n=%d: front differs\n got %+v\nwant %+v", devName, trial, n, got, want)
			}
		}
	}
}

// TestExploreParetoConstrained is the pruning scale check: on the
// constrained fabric the fit bound must skip more than half the partitions
// without evaluation, the front must still exactly match ExploreAll's,
// and the streaming engine's peak resident point count must stay at
// front-scale, not Bell(n)-scale.
func TestExploreParetoConstrained(t *testing.T) {
	n := 10
	prms := ConstrainedPRMs(n)
	e := constrainedExplorer()
	want := Pareto(e.ExploreAll(prms))

	got, stats, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("constrained front differs:\n got %+v\nwant %+v", got, want)
	}
	if pruned := stats.PrunedFit + stats.PrunedDominated; pruned <= stats.Partitions/2 {
		t.Errorf("pruned %d of %d partitions; want > half skipped without evaluation", pruned, stats.Partitions)
	}
	if stats.MaxResident >= stats.Partitions/10 {
		t.Errorf("resident points peaked at %d for %d partitions; streaming should stay O(front)",
			stats.MaxResident, stats.Partitions)
	}
	if stats.MaxResident < int64(len(want)) {
		t.Errorf("resident peak %d below front size %d", stats.MaxResident, len(want))
	}
	t.Logf("constrained n=%d: %d partitions, %d evaluated, %d fit-pruned, %d dominance-pruned, %d pricings, front %d, resident peak %d",
		n, stats.Partitions, stats.Evaluated, stats.PrunedFit, stats.PrunedDominated,
		stats.GroupPricings, stats.FrontSize, stats.MaxResident)
}

// TestBBStatsIndependentOfSplit: the search counters describe the search,
// not how it was carved into subtree jobs. The walk prices and charges every
// prefix once, by the same rules at every depth, so Evaluated, PrunedFit,
// CollapsedSymmetry and GroupPricings are identical at every split depth and
// worker count. The Pareto engine's dominance counters follow each job's own
// front, so there only the front and the partition sum are checked.
func TestBBStatsIndependentOfSplit(t *testing.T) {
	repro := ConstrainedPRMs(7)
	repro[2].Req, repro[3].Req = repro[0].Req, repro[0].Req
	dup := ConstrainedPRMs(8)
	for _, i := range []int{3, 6} {
		dup[i].Req = dup[0].Req
	}
	type counters struct{ partitions, evaluated, prunedFit, collapsed, pricings int64 }
	for _, tc := range []struct {
		name string
		e    *Explorer
		prms []PRM
		want *counters // nil: only agreement across splits is required
	}{
		{"constrained-7", constrainedExplorer(), repro, &counters{877, 120, 603, 154, 329}},
		{"constrained-8", constrainedExplorer(), dup, nil},
		{"duplicate-9-3", explorer(t, "XC6VLX75T"), DuplicatePRMs(9, 3), nil},
	} {
		ctx := context.Background()
		wantFront := Pareto(tc.e.ExploreAll(tc.prms))
		ref := tc.want
		for split := 1; split <= len(tc.prms); split++ {
			for _, workers := range []int{1, 2, 4, 16} {
				opts := BBOptions{Workers: workers, splitDepth: split}
				stats, err := tc.e.ExploreBB(ctx, tc.prms, opts, func(DesignPoint) bool { return true })
				if err != nil {
					t.Fatalf("%s opts=%+v: %v", tc.name, opts, err)
				}
				got := counters{stats.Partitions, stats.Evaluated, stats.PrunedFit, stats.CollapsedSymmetry, stats.GroupPricings}
				if ref == nil {
					ref = &got
				} else if got != *ref {
					t.Errorf("%s split=%d workers=%d: partitions/evaluated/pruned-fit/collapsed/pricings = %v, want %v",
						tc.name, split, workers, got, *ref)
				}

				opts.DominancePrune = true
				front, pstats, err := tc.e.ExploreParetoBB(ctx, tc.prms, opts)
				if err != nil {
					t.Fatalf("%s opts=%+v: %v", tc.name, opts, err)
				}
				if !reflect.DeepEqual(front, wantFront) {
					t.Errorf("%s split=%d workers=%d: front differs from Pareto(ExploreAll)", tc.name, split, workers)
				}
				if total := pstats.Evaluated + pstats.PrunedFit + pstats.PrunedDominated + pstats.CollapsedSymmetry; total != pstats.Partitions {
					t.Errorf("%s split=%d workers=%d: evaluated %d + pruned %d+%d + collapsed %d != Bell(n) %d",
						tc.name, split, workers, pstats.Evaluated, pstats.PrunedFit, pstats.PrunedDominated,
						pstats.CollapsedSymmetry, pstats.Partitions)
				}
			}
		}
	}
}

// TestExploreBBCallbackMatchesExploreAll: with pruning disabled the callback
// engine delivers exactly the ExploreAll point multiset; with the fit bound
// on it delivers every feasible point (the bound only removes infeasible
// ones). Cross-subtree delivery order is unspecified, so compare sorted.
func TestExploreBBCallbackMatchesExploreAll(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(6)
	all := e.ExploreAll(prms)

	collect := func(opts BBOptions) []DesignPoint {
		var pts []DesignPoint
		stats, err := e.ExploreBB(context.Background(), prms, opts, func(dp DesignPoint) bool {
			pts = append(pts, dp)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(pts)) != stats.Evaluated {
			t.Fatalf("delivered %d points but stats.Evaluated = %d", len(pts), stats.Evaluated)
		}
		sort.Slice(pts, func(i, j int) bool { return Describe(prms, pts[i]) < Describe(prms, pts[j]) })
		return pts
	}

	unpruned := collect(BBOptions{DisableFitPrune: true})
	wantAll := append([]DesignPoint(nil), all...)
	sort.Slice(wantAll, func(i, j int) bool { return Describe(prms, wantAll[i]) < Describe(prms, wantAll[j]) })
	if !reflect.DeepEqual(unpruned, wantAll) {
		t.Errorf("unpruned callback points differ from ExploreAll (%d vs %d)", len(unpruned), len(wantAll))
	}

	pruned := collect(BBOptions{})
	var wantFeasible []DesignPoint
	for _, p := range all {
		if p.Feasible {
			wantFeasible = append(wantFeasible, p)
		}
	}
	var gotFeasible []DesignPoint
	for _, p := range pruned {
		if p.Feasible {
			gotFeasible = append(gotFeasible, p)
		}
	}
	sort.Slice(wantFeasible, func(i, j int) bool { return Describe(prms, wantFeasible[i]) < Describe(prms, wantFeasible[j]) })
	if !reflect.DeepEqual(gotFeasible, wantFeasible) {
		t.Errorf("fit-pruned callback lost feasible points (%d vs %d)", len(gotFeasible), len(wantFeasible))
	}
}

// TestExploreBBEarlyStop: returning false from visit halts the exploration
// promptly with no error.
func TestExploreBBEarlyStop(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(8)
	seen := 0
	stats, err := e.ExploreBB(context.Background(), prms, BBOptions{}, func(DesignPoint) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 10 {
		t.Fatalf("visit called %d times, early-stop threshold never reached", seen)
	}
	if stats.Evaluated >= stats.Partitions {
		t.Errorf("early stop evaluated all %d partitions", stats.Partitions)
	}
}

// TestExploreBBCancel: a cancelled context aborts with its error and no
// front.
func TestExploreBBCancel(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	front, _, err := e.ExploreParetoBB(ctx, prms, BBOptions{})
	if err == nil {
		t.Fatal("cancelled exploration returned no error")
	}
	if front != nil {
		t.Errorf("cancelled exploration returned %d front points", len(front))
	}
}

// TestExplorePareto checks the paper's FIR/MIPS/SDRAM set (Table V) at
// default parallelism with dominance pruning against the flat front.
func TestExplorePareto(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := paperPRMs(t, "XC6VLX75T")
	want := Pareto(e.ExploreAll(prms))
	got, _, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExploreParetoBB = %+v, want %+v", got, want)
	}
}

// TestParetoFrontStreaming feeds points in adversarial orders and checks the
// online merger always matches the batch filter, including duplicate
// non-dominated points and later points evicting earlier ones.
func TestParetoFrontStreaming(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(6)
	all := e.ExploreAll(prms)
	want := Pareto(all)

	// Sequential order, as one merger.
	f := &ParetoFront{}
	for i, p := range all {
		if p.Feasible {
			f.Add(p, uint64(i))
		}
	}
	if got := f.Points(); !reflect.DeepEqual(got, want) {
		t.Errorf("streamed front differs from batch Pareto (%d vs %d points)", len(got), len(want))
	}

	// Insertion order: the explorer's walks add to one front in whatever
	// order they reach their leaves, so any permutation of the same indexed
	// points must give the same front. Every front point gets an exact-
	// objective twin at a later index, told apart by its bitstream total, so
	// the tie order is checked too.
	type item struct {
		dp  DesignPoint
		seq uint64
	}
	var items []item
	var seqOrder []DesignPoint
	for i, p := range all {
		if p.Feasible {
			items = append(items, item{p, uint64(i)})
			seqOrder = append(seqOrder, p)
		}
	}
	for i, p := range want {
		p.TotalBitstreamBytes += 1 + i
		items = append(items, item{p, uint64(len(all) + i)})
		seqOrder = append(seqOrder, p)
	}
	wantTies := Pareto(seqOrder)
	if len(wantTies) != 2*len(want) {
		t.Fatalf("front with twins has %d points, want %d", len(wantTies), 2*len(want))
	}
	rng := rand.New(rand.NewSource(53))
	for perm := 0; perm < 50; perm++ {
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		f := &ParetoFront{}
		for _, it := range items {
			f.Add(it.dp, it.seq)
		}
		if got := f.Points(); !reflect.DeepEqual(got, wantTies) {
			t.Fatalf("permutation %d: front differs from batch Pareto in index order", perm)
		}
	}
}

// TestBBStatsMetricsFlow: one constrained run moves the engine-wide
// branch-and-bound counters.
func TestBBStatsMetricsFlow(t *testing.T) {
	e := constrainedExplorer()
	prms := ConstrainedPRMs(8)
	before := metBBPrunedFit.Value()
	_, stats, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedFit == 0 {
		t.Fatal("constrained workload produced no fit prunes")
	}
	if got := metBBPrunedFit.Value() - before; got != stats.PrunedFit {
		t.Errorf("registry pruned-fit delta %d != stats %d", got, stats.PrunedFit)
	}
}

// TestExploreBBEmpty: no PRMs yields no front, no stats and no error.
func TestExploreBBEmpty(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	front, stats, err := e.ExploreParetoBB(context.Background(), nil, BBOptions{})
	if err != nil || front != nil || stats != (BBStats{}) {
		t.Errorf("empty exploration = (%v, %+v, %v), want (nil, zero, nil)", front, stats, err)
	}
}

// TestExploreBBRejectsBellOverflow: Bell(26) overflows the int64 partition
// counters, so 26 PRMs must fail up front instead of reporting a negative
// design space (and a negative collapse ratio) after walking it.
func TestExploreBBRejectsBellOverflow(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	visited := 0
	stats, err := e.ExploreBB(context.Background(), DuplicatePRMs(26, 1), BBOptions{}, func(DesignPoint) bool {
		visited++
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "26 PRMs") {
		t.Fatalf("ExploreBB(26 PRMs) error = %v, want an overflow rejection", err)
	}
	if visited != 0 || stats != (BBStats{}) {
		t.Errorf("rejected exploration still walked: %d points visited, stats %+v", visited, stats)
	}
	if _, _, err := e.ExploreParetoBB(context.Background(), DuplicatePRMs(26, 1), BBOptions{}); err == nil {
		t.Error("ExploreParetoBB accepted 26 PRMs")
	}
}

// TestBellNumber pins the Bell numbers the partition counters report,
// through the last one int64 holds.
func TestBellNumber(t *testing.T) {
	want := []int{1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570}
	for n, w := range want {
		if got := bellNumber(n); got != w {
			t.Errorf("Bell(%d) = %d, want %d", n, got, w)
		}
	}
	if got := bellNumber(maxPRMs); got != 4638590332229999353 {
		t.Errorf("Bell(%d) = %d, want 4638590332229999353", maxPRMs, got)
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (with a little slack for runtime helpers), failing after the
// deadline.
func waitForGoroutines(t *testing.T, base int, deadline time.Duration) {
	t.Helper()
	const slack = 2
	end := time.Now().Add(deadline)
	for {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not return to baseline %d (now %d):\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestExploreBBNoGoroutineLeakOnCancel proves the subtree workers exit
// promptly when the context is cancelled mid-walk: the visitor holds the
// first point until the cancel has fired, so the walk cannot finish first,
// and every worker must then unwind. XC6VLX75T, because its synthetic
// workload yields feasible points (on larger parts BB visits none).
func TestExploreBBNoGoroutineLeakOnCancel(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(11)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		once := false
		_, err := e.ExploreBB(ctx, prms, BBOptions{Workers: 4}, func(DesignPoint) bool {
			if !once {
				once = true // visit is serialized, so no race on once
				close(first)
				<-ctx.Done()
			}
			return true
		})
		errc <- err
	}()

	<-first
	cancel()
	start := time.Now()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled exploration returned no error")
		}
		t.Logf("cancel-to-return %v", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatal("exploration did not return after cancel")
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestExploreBBNoGoroutineLeakOnEarlyStop: a visitor that stops the walk
// leaves no workers behind.
func TestExploreBBNoGoroutineLeakOnEarlyStop(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	base := runtime.NumGoroutine()
	seen := 0
	if _, err := e.ExploreBB(context.Background(), SyntheticPRMs(9), BBOptions{Workers: 4}, func(DesignPoint) bool {
		seen++
		return seen < 3
	}); err != nil {
		t.Fatal(err)
	}
	if seen < 3 {
		t.Fatalf("visit called %d times, early-stop threshold never reached", seen)
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestExploreBBNoGoroutineLeakOnCompletion: the happy path leaves no
// workers behind either.
func TestExploreBBNoGoroutineLeakOnCompletion(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	base := runtime.NumGoroutine()
	if _, _, err := e.ExploreParetoBB(context.Background(), SyntheticPRMs(7), BBOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base, 5*time.Second)
}
