package device

import "sync"

// WindowIndex is the per-fabric window-search index: everything the Fig. 1
// column classification can know from the fabric alone, computed once and
// shared by every consumer (the floorplan search, the PRR model's H sweep,
// the DSE engines and the HTTP service).
//
// A candidate window's composition depends only on its start column and
// width, never on the row, the height, the avoid set or the hole layout — so
// for each distinct exact-composition need the sorted candidate start columns
// are derived once (from the per-kind prefix sums) and memoized. Lookups
// after the first are a map read returning the shared slice: no allocation,
// no O(cols) re-classification.
//
// The index also records the fabric's maximal PRR-allowed column runs: any
// forbidden-free window lies inside one run, so the runs bound what any
// window can contain, independent of H (see CanHold).
//
// Entries are immutable once built; the map only grows (bounded by the
// distinct needs the workload presents). The fabric must not be mutated after
// its index is first requested.
type WindowIndex struct {
	pre  ColumnPrefix
	cols int

	// kinds counts the fabric's columns by kind (Fabric.CountKind, cached).
	kinds Composition
	// runs holds one composition per maximal PRR-allowed column run.
	runs []Composition
	// maxRun is the per-kind maximum over runs; maxRunWidth the widest run.
	maxRun      Composition
	maxRunWidth int

	// cands maps an exact window composition to its sorted candidate start
	// columns (sync.Map: built once per need, then lock-free reads).
	cands sync.Map // Composition -> []int
}

// windowIndexes caches one index per fabric, keyed by identity. Catalog
// fabrics are process-lifetime singletons; ad-hoc fabrics (tests, custom
// devices) each get their own entry on first use.
var windowIndexes sync.Map // *Fabric -> *WindowIndex

// WindowIndex returns the fabric's window index, building it on first use.
// Concurrent first calls may race to build; all callers observe the same
// winning instance.
func (f *Fabric) WindowIndex() *WindowIndex {
	if v, ok := windowIndexes.Load(f); ok {
		return v.(*WindowIndex)
	}
	v, _ := windowIndexes.LoadOrStore(f, newWindowIndex(f))
	return v.(*WindowIndex)
}

// newWindowIndex builds the immutable base: prefix sums, kind counts and the
// allowed-run census. Candidate sets are built lazily per need.
func newWindowIndex(f *Fabric) *WindowIndex {
	ix := &WindowIndex{pre: f.PrefixSums(), cols: f.NumColumns()}
	var run Composition
	width := 0
	flush := func() {
		if width == 0 {
			return
		}
		ix.runs = append(ix.runs, run)
		for k := ColumnKind(0); k < numKinds; k++ {
			if run[k] > ix.maxRun[k] {
				ix.maxRun[k] = run[k]
			}
		}
		if width > ix.maxRunWidth {
			ix.maxRunWidth = width
		}
		run, width = Composition{}, 0
	}
	for _, k := range f.Columns {
		ix.kinds.Add(k, 1)
		if !k.PRRAllowed() {
			flush()
			continue
		}
		run.Add(k, 1)
		width++
	}
	flush()
	return ix
}

// Candidates returns the sorted start columns of every window whose
// composition exactly matches comp (and contains no IOB/CLK column — implied
// when comp itself is forbidden-free). The returned slice is shared and must
// not be mutated. built reports whether this call built the entry rather
// than finding it memoized.
func (ix *WindowIndex) Candidates(comp Composition) (cols []int, built bool) {
	if v, ok := ix.cands.Load(comp); ok {
		return v.([]int), false
	}
	fresh := ix.buildCandidates(comp)
	v, loaded := ix.cands.LoadOrStore(comp, fresh)
	return v.([]int), !loaded
}

// buildCandidates classifies every start column once for the composition,
// exactly as the scanning search did per call.
func (ix *WindowIndex) buildCandidates(comp Composition) []int {
	w := comp.Total()
	if w == 0 || comp.HasForbidden() || w > ix.maxRunWidth ||
		comp[KindCLB] > ix.maxRun[KindCLB] ||
		comp[KindDSP] > ix.maxRun[KindDSP] ||
		comp[KindBRAM] > ix.maxRun[KindBRAM] {
		return nil // no run can contain the mix; don't scan
	}
	var cands []int
	for col := 1; col <= ix.cols-w+1; col++ {
		c := ix.pre.CompositionOf(col, w)
		if c == comp { // exact match implies forbidden-free here
			cands = append(cands, col)
		}
	}
	return cands
}

// Runs returns one composition per maximal PRR-allowed column run, in
// left-to-right order. The slice is shared and must not be mutated.
func (ix *WindowIndex) Runs() []Composition { return ix.runs }

// CanHold reports whether some allowed run contains at least comp's column
// count of every kind simultaneously. Any window the floorplan search can
// ever return lies entirely inside one run — a window must be contiguous and
// forbidden-free — so false means no window with those (or larger) per-kind
// counts exists anywhere on the fabric, for any row, height, avoid set or
// hole layout: a sound bound for branch-and-bound pruning.
func (ix *WindowIndex) CanHold(comp Composition) bool {
next:
	for _, run := range ix.runs {
		for k, c := range comp {
			if run[k] < c {
				continue next
			}
		}
		return true
	}
	return false
}

// MaxRun returns the per-kind maximum column counts over the allowed runs: no
// window anywhere on the fabric can contain more columns of a kind.
func (ix *WindowIndex) MaxRun() Composition { return ix.maxRun }

// MaxRunWidth returns the widest allowed run — the widest window any need can
// ever occupy.
func (ix *WindowIndex) MaxRunWidth() int { return ix.maxRunWidth }

// KindCount returns the fabric's total column count for kind k
// (Fabric.CountKind without the per-call scan).
func (ix *WindowIndex) KindCount(k ColumnKind) int { return ix.kinds[k] }

// NeedsIndexed counts the distinct compositions with memoized candidate
// sets, for diagnostics and tests.
func (ix *WindowIndex) NeedsIndexed() int {
	n := 0
	ix.cands.Range(func(_, _ any) bool { n++; return true })
	return n
}
