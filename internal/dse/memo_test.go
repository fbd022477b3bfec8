package dse

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/obs"
)

// checkMemoEquivalence runs the Pareto exploration with the memo on and off
// and requires bit-for-bit identical fronts (points, order, tie-breaks) at
// the default worker count, and identical stats modulo the memo counters
// themselves at Workers 1: with more workers the walks share one front, so
// the search counters follow scheduling. When the memo is expected to engage,
// it also checks the lookup contract: every tree edge does exactly one
// lookup, so hits+misses equals GroupPricings.
func checkMemoEquivalence(t *testing.T, e *Explorer, prms []PRM, wantActive bool) {
	t.Helper()
	ctx := context.Background()
	explore := func(opts BBOptions) ([]DesignPoint, BBStats) {
		t.Helper()
		front, stats, err := e.ExploreParetoBB(ctx, prms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return front, stats
	}
	on, _ := explore(BBOptions{DominancePrune: true})
	off, _ := explore(BBOptions{DominancePrune: true, Memo: MemoOff})
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("memo-on front differs from memo-off\n on  %+v\noff %+v", on, off)
	}
	_, onStats := explore(BBOptions{DominancePrune: true, Workers: 1})
	_, offStats := explore(BBOptions{DominancePrune: true, Workers: 1, Memo: MemoOff})
	if offStats.MemoHits != 0 || offStats.MemoMisses != 0 || offStats.MemoEntries != 0 {
		t.Errorf("MemoOff reported memo activity: %+v", offStats)
	}
	if wantActive {
		if onStats.MemoHits == 0 {
			t.Errorf("memo never hit: %+v", onStats)
		}
		if got := onStats.MemoHits + onStats.MemoMisses; got != onStats.GroupPricings {
			t.Errorf("hits+misses = %d, want GroupPricings = %d", got, onStats.GroupPricings)
		}
		if onStats.MemoEntries <= 0 || onStats.MemoEntries > onStats.MemoMisses {
			t.Errorf("MemoEntries = %d outside (0, misses=%d]", onStats.MemoEntries, onStats.MemoMisses)
		}
	}
	// The memo changes where prices come from, never what the engine does:
	// every other statistic must be identical.
	onStats.MemoHits, onStats.MemoMisses, onStats.MemoEntries = 0, 0, 0
	if !reflect.DeepEqual(onStats, offStats) {
		t.Errorf("memo-on stats differ beyond the memo counters\n on  %+v\noff %+v", onStats, offStats)
	}
	checkMemoDeterministic(t, e, prms)
}

// checkMemoDeterministic pins Workers 1, where the root walk and the single
// worker each own their memo: every counter, the memo's included, must then
// be a function of the input alone, identical across repeated runs.
func checkMemoDeterministic(t *testing.T, e *Explorer, prms []PRM) {
	t.Helper()
	opts := BBOptions{DominancePrune: true, Workers: 1}
	_, want, err := e.ExploreParetoBB(context.Background(), prms, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		_, got, err := e.ExploreParetoBB(context.Background(), prms, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Workers 1 run %d stats differ from run 0\n got  %+v\nwant %+v", run, got, want)
		}
	}
}

// TestMemoMatchesMemoOff: duplicate-heavy workloads across two catalog
// devices. Run under -race this also exercises the per-walk memos of the
// parallel subtree workers.
func TestMemoMatchesMemoOff(t *testing.T) {
	for _, devName := range []string{"XC6VLX75T", "XC5VLX110T"} {
		for _, nk := range []struct{ n, k int }{{7, 2}, {8, 3}, {9, 2}} {
			prms := DuplicatePRMs(nk.n, nk.k)
			checkMemoEquivalence(t, explorer(t, devName), prms, true)
		}
	}
}

// TestMemoMatchesMemoOffConstrained: the memo composes with the fit and
// dominance bounds on the deliberately tight fabric, where infeasible group
// evaluations — the ordered-key table — dominate.
func TestMemoMatchesMemoOffConstrained(t *testing.T) {
	prms := ConstrainedPRMs(8)
	for _, i := range []int{3, 6} {
		prms[i].Req = prms[0].Req
	}
	checkMemoEquivalence(t, constrainedExplorer(), prms, true)
}

// TestMemoMatchesMemoOffRandom: randomized duplicate workloads, including
// infeasible-prone shapes from randomPRMs, shuffled so duplicate signatures
// interleave arbitrarily.
func TestMemoMatchesMemoOffRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
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
			// Oversized shapes can make every composition distinct after the
			// fit bound, so activity is not asserted — only exactness.
			checkMemoEquivalence(t, explorer(t, devName), prms, false)
		}
	}
}

// TestMemoMatchesMemoOffDistinct: all-distinct PRMs still repeat group
// states across partitions, so the memo engages there too and must stay
// exact. ConstrainedPRMs(11) mixes feasible and infeasible pricings on the
// tight fabric.
func TestMemoMatchesMemoOffDistinct(t *testing.T) {
	checkMemoEquivalence(t, constrainedExplorer(), ConstrainedPRMs(11), true)
}

// collectPoints runs the callback engine and returns every delivered point
// rendered with %+v, sorted: cross-subtree delivery order is unspecified,
// but the multiset of points, Infeasibility text included, is not.
func collectPoints(t *testing.T, e *Explorer, prms []PRM, opts BBOptions) ([]string, BBStats) {
	t.Helper()
	var pts []string
	stats, err := e.ExploreBB(context.Background(), prms, opts, func(dp DesignPoint) bool {
		pts = append(pts, fmt.Sprintf("%+v", dp))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pts)
	return pts, stats
}

// TestMemoCallbackMatchesMemoOff: the callback engine must deliver the exact
// same point multiset either way — including the Infeasibility strings, whose
// in-group PRM index is order-dependent (the ordered-key table exists
// precisely to reproduce them bit-for-bit). SyntheticPRMs(7) on the
// XC6VLX75T is the streamed explore's shape: seven all-distinct PRMs, all
// partitions feasible. On the XC5VLX110T the synthetic streams carry
// infeasible points as well.
func TestMemoCallbackMatchesMemoOff(t *testing.T) {
	for _, tc := range []struct {
		dev        string
		prms       []PRM
		infeasible bool // the stream must carry infeasible points
	}{
		{"XC6VLX75T", DuplicatePRMs(7, 2), false},
		{"XC6VLX75T", SyntheticPRMs(7), false},
		{"XC6VLX75T", SyntheticPRMs(9), false},
		{"XC5VLX110T", SyntheticPRMs(7), true},
		{"XC5VLX110T", SyntheticPRMs(9), true},
	} {
		name := fmt.Sprintf("%s/n=%d", tc.dev, len(tc.prms))
		e := explorer(t, tc.dev)
		// DisableFitPrune delivers infeasible leaves too, exercising errMsg.
		on, stats := collectPoints(t, e, tc.prms, BBOptions{DisableFitPrune: true})
		off, _ := collectPoints(t, e, tc.prms, BBOptions{DisableFitPrune: true, Memo: MemoOff})
		if len(on) != len(off) {
			t.Fatalf("%s: %d points memo-on vs %d memo-off", name, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("%s: point %d differs memo-on vs memo-off\n on  %s\noff %s", name, i, on[i], off[i])
			}
		}
		if stats.MemoHits == 0 {
			t.Errorf("%s: memo never hit: %+v", name, stats)
		}
		infeasible := 0
		for _, p := range on {
			if strings.Contains(p, "Feasible:false") {
				infeasible++
			}
		}
		if tc.infeasible && infeasible == 0 {
			t.Errorf("%s: no infeasible points delivered; the ordered-key table went unexercised", name)
		}
	}
}

// TestMemoEngagesOnDistinctPRMs: with all-distinct signatures the same
// (group, placed-region set) state still recurs across partitions, so
// MemoAuto must memoize and hit.
func TestMemoEngagesOnDistinctPRMs(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	_, stats, err := e.ExploreParetoBB(context.Background(), SyntheticPRMs(6), BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits == 0 || stats.MemoHits+stats.MemoMisses != stats.GroupPricings {
		t.Errorf("memo inert on all-distinct PRMs: %+v", stats)
	}
}

// TestMemoBudgetExact: a memo that fills its budget stops storing but keeps
// pricing, so the output stays bit-identical to MemoOff and the walks hold no
// more entries than the budget, at any worker count.
func TestMemoBudgetExact(t *testing.T) {
	const budget = 100
	ctx := context.Background()
	ce := constrainedExplorer()
	prms := ConstrainedPRMs(9)
	wantFront, offStats, err := ce.ExploreParetoBB(ctx, prms, BBOptions{DominancePrune: true, Workers: 1, Memo: MemoOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		front, stats, err := ce.ExploreParetoBB(ctx, prms, BBOptions{DominancePrune: true, Workers: workers, memoBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(front, wantFront) {
			t.Fatalf("workers=%d: budgeted front differs from memo-off", workers)
		}
		if stats.MemoEntries > budget || stats.MemoEntries >= stats.MemoMisses {
			t.Errorf("workers=%d: %d entries from %d misses; want at most %d, budget reached",
				workers, stats.MemoEntries, stats.MemoMisses, budget)
		}
		if workers == 1 {
			stats.MemoHits, stats.MemoMisses, stats.MemoEntries = 0, 0, 0
			if stats != offStats {
				t.Errorf("budgeted stats differ beyond the memo counters\n got  %+v\nwant %+v", stats, offStats)
			}
		}
	}

	e := explorer(t, "XC6VLX75T")
	syn := SyntheticPRMs(8)
	off, _ := collectPoints(t, e, syn, BBOptions{DisableFitPrune: true, Memo: MemoOff})
	on, stats := collectPoints(t, e, syn, BBOptions{DisableFitPrune: true, memoBudget: budget})
	if !reflect.DeepEqual(on, off) {
		t.Error("budgeted point stream differs from memo-off")
	}
	if stats.MemoEntries > budget || stats.MemoHits == 0 {
		t.Errorf("budgeted stream: %d entries, %d hits; want at most %d entries and some hits",
			stats.MemoEntries, stats.MemoHits, budget)
	}
}

// memoRef is the semantic content a memo key must encode injectively.
type memoRef struct {
	classes string // sorted (canonical) or in member order (ordered)
	regions string // sorted by core.RegionLess
}

func memoRefOf(members, classOf []int, avoid []floorplan.Region, canonical bool) memoRef {
	cs := make([]int, len(members))
	for i, m := range members {
		cs[i] = classOf[m]
	}
	if canonical {
		sort.Ints(cs)
	}
	rs := append([]floorplan.Region(nil), avoid...)
	sort.Slice(rs, func(i, j int) bool { return core.RegionLess(rs[i], rs[j]) })
	return memoRef{classes: fmt.Sprint(cs), regions: fmt.Sprint(rs)}
}

// randomMemoCase draws a random (members, classOf, avoid) triple within the
// encoder's supported envelope, biased toward small values so collisions of
// the semantic forms actually occur across cases.
func randomMemoCase(rng *rand.Rand) ([]int, []int, []floorplan.Region) {
	n := 1 + rng.Intn(6)
	classOf := make([]int, n)
	members := make([]int, n)
	for i := range classOf {
		classOf[i] = rng.Intn(4)
		members[i] = i
	}
	rng.Shuffle(n, func(i, j int) { members[i], members[j] = members[j], members[i] })
	avoid := make([]floorplan.Region, rng.Intn(4))
	for i := range avoid {
		avoid[i] = floorplan.Region{Row: rng.Intn(3), Col: rng.Intn(3), H: 1 + rng.Intn(3), W: 1 + rng.Intn(3)}
	}
	return members, classOf, avoid
}

// TestMemoKeyInjective is the property test behind the encoding's soundness
// claim: across random (composition, avoid-multiset) inputs, two canonical
// keys are equal exactly when the sorted class multisets and the sorted
// region multisets both are; two ordered keys are equal exactly when the
// in-order class sequences and region multisets both are.
func TestMemoKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type enc struct {
		canon, ordered   string
		canonRef, ordRef memoRef
	}
	var sc memoScratch
	cases := make([]enc, 300)
	for i := range cases {
		members, classOf, avoid := randomMemoCase(rng)
		ck := string(sc.canonicalKey(members, classOf, avoid))
		ok := string(sc.orderedKey(members, classOf))
		cases[i] = enc{
			canon: ck, ordered: ok,
			canonRef: memoRefOf(members, classOf, avoid, true),
			ordRef:   memoRefOf(members, classOf, avoid, false),
		}
	}
	collisions := 0
	for i := range cases {
		for j := i + 1; j < len(cases); j++ {
			if (cases[i].canon == cases[j].canon) != (cases[i].canonRef == cases[j].canonRef) {
				t.Fatalf("canonical key equality diverges from semantics:\n%q vs %q\n%+v vs %+v",
					cases[i].canon, cases[j].canon, cases[i].canonRef, cases[j].canonRef)
			}
			if (cases[i].ordered == cases[j].ordered) != (cases[i].ordRef == cases[j].ordRef) {
				t.Fatalf("ordered key equality diverges from semantics:\n%q vs %q\n%+v vs %+v",
					cases[i].ordered, cases[j].ordered, cases[i].ordRef, cases[j].ordRef)
			}
			if cases[i].canonRef == cases[j].canonRef {
				collisions++
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no semantic collisions drawn: the test never exercised the equal-keys direction")
	}
}

// FuzzMemoKey drives the same injectivity property from fuzzed bytes: a
// permutation of members and avoid regions must leave the canonical key
// unchanged, and perturbing one class id must change it.
func FuzzMemoKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed uint8) {
		if len(data) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(data[0])%6
		classOf := make([]int, n)
		for i := range classOf {
			classOf[i] = int(data[(1+i)%len(data)]) % 5
		}
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		avoid := make([]floorplan.Region, int(data[len(data)-1])%4)
		for i := range avoid {
			b := data[(2+3*i)%len(data)]
			avoid[i] = floorplan.Region{Row: int(b) % 7, Col: int(b) % 5, H: 1 + int(b)%3, W: 1 + int(b)%4}
		}

		var sc1, sc2 memoScratch
		key := string(sc1.canonicalKey(members, classOf, avoid))

		perm := append([]int(nil), members...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		pavoid := append([]floorplan.Region(nil), avoid...)
		rng.Shuffle(len(pavoid), func(i, j int) { pavoid[i], pavoid[j] = pavoid[j], pavoid[i] })
		if got := string(sc2.canonicalKey(perm, classOf, pavoid)); got != key {
			t.Fatalf("canonical key not permutation-invariant: %q vs %q", got, key)
		}

		// Change one member's class to a value absent from the multiset: the
		// composition differs, so the key must too.
		mut := append([]int(nil), classOf...)
		mut[members[0]] = 5
		if got := string(sc2.canonicalKey(members, mut, avoid)); got == key {
			t.Fatalf("canonical key unchanged after class mutation: %q", key)
		}
	})
}

// TestMemoMetricsRegistered: a memoized exploration must move the registry
// counters, and they must export under their Prometheus names.
func TestMemoMetricsRegistered(t *testing.T) {
	h0, m0, e0 := metMemoHits.Value(), metMemoMisses.Value(), metMemoEntries.Value()
	e := explorer(t, "XC6VLX75T")
	_, stats, err := e.ExploreParetoBB(context.Background(), DuplicatePRMs(7, 2), BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := metMemoHits.Value() - h0; d != stats.MemoHits {
		t.Errorf("dse_group_memo_hits_total delta = %d, want %d", d, stats.MemoHits)
	}
	if d := metMemoMisses.Value() - m0; d != stats.MemoMisses {
		t.Errorf("dse_group_memo_misses_total delta = %d, want %d", d, stats.MemoMisses)
	}
	if d := metMemoEntries.Value() - e0; d != stats.MemoEntries {
		t.Errorf("dse_group_memo_entries_total delta = %d, want %d", d, stats.MemoEntries)
	}
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dse_group_memo_hits_total",
		"dse_group_memo_misses_total",
		"dse_group_memo_entries_total",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("default registry does not export %s", name)
		}
	}
}

// TestMemoHitNoAlloc: a memo hit — key build plus map read — must not
// allocate; the hit path runs hundreds of millions of times in an n=20 walk.
func TestMemoHitNoAlloc(t *testing.T) {
	s := pricingWalk(t, memoBudget)
	if allocs := testing.AllocsPerRun(200, func() { s.priceEdge(1) }); allocs != 0 {
		t.Errorf("memo hit allocates %.1f objects per pricing", allocs)
	}
	if s.memoHits == 0 {
		t.Fatal("repeat pricings never hit the memo")
	}
}

// TestMemoMissNoAlloc: a feasible miss prices into the walk's scratch, so
// once the scratch has grown it allocates nothing either.
func TestMemoMissNoAlloc(t *testing.T) {
	s := pricingWalk(t, 0)
	if allocs := testing.AllocsPerRun(200, func() { s.priceEdge(1) }); allocs != 0 {
		t.Errorf("memo miss allocates %.1f objects per pricing", allocs)
	}
	if s.memoHits != 0 {
		t.Fatal("a memo with no room served a hit")
	}
}
