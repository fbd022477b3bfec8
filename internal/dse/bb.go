package dse

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
	"repro/internal/obs"
)

// BBOptions tunes the branch-and-bound explorer.
type BBOptions struct {
	// Workers caps the subtree worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// DominancePrune additionally skips subtrees whose objective lower
	// bounds are strictly dominated by a front point (Pareto mode only).
	// The front is unchanged: only strictly-dominated points are skipped.
	DominancePrune bool
	// DisableFitPrune turns off the monotone infeasibility bound, pricing
	// every partition like ExploreAll (for measurement).
	DisableFitPrune bool
	// Symmetry selects the interchangeable-PRM collapse (see SymmetryMode).
	// The default, SymmetryAuto, canonicalizes whenever two PRMs share a
	// requirement signature; SymmetryOff explores the full space.
	Symmetry SymmetryMode
	// Memo selects the composition-keyed group-pricing memo (see MemoMode).
	// The default, MemoAuto, memoizes every exploration, within a fixed entry
	// budget; MemoOff prices every tree edge with the cost models.
	Memo MemoMode
	// splitDepth is the RGS depth at which the walk hands its subtrees to the
	// workers; 0 picks autoSplitDepth. Only tests set it, to pin that the
	// search counters do not depend on it.
	splitDepth int
	// memoBudget overrides the memo's entry budget; 0 means memoBudget. Only
	// tests set it, to pin that a full memo changes no output.
	memoBudget int
}

// BBStats reports what the branch-and-bound run did. Partitions always
// equals Evaluated + PrunedFit + PrunedDominated + CollapsedSymmetry: every
// set partition is either priced or charged to exactly one skipped subtree.
type BBStats struct {
	// Partitions is Bell(n), the full design-space size.
	Partitions int64
	// Evaluated counts partitions fully priced (the tree's visited leaves).
	Evaluated int64
	// PrunedFit counts partitions skipped because a prefix group can never
	// be placed (requirement-level bound, sound for any avoid set).
	PrunedFit int64
	// PrunedDominated counts partitions skipped because every completion is
	// strictly dominated by a current front point.
	PrunedDominated int64
	// CollapsedSymmetry counts partitions skipped as non-canonical members of
	// an interchangeable-PRM fiber: each prices identically to the canonical
	// representative the engine did evaluate (0 with SymmetryOff or when all
	// signatures are distinct).
	CollapsedSymmetry int64
	// Classes is the number of distinct PRM requirement signatures.
	Classes int
	// GroupPricings counts EstimateShared-equivalent group pricings — the
	// engine's real work unit. ExploreAll prices every group of every
	// partition; prefix sharing prices each tree edge once, at any split
	// depth and worker count.
	GroupPricings int64
	// Subtrees is the number of subtree jobs the walk handed to workers: the
	// length-SplitDepth prefixes that survived the fit bound and the
	// symmetry collapse.
	Subtrees int
	// SplitDepth is the RGS depth the jobs were split at.
	SplitDepth int
	// FrontSize is the final Pareto-front size (Pareto mode).
	FrontSize int
	// MaxResident is the peak number of points the exploration's one front
	// held. It is O(front), where ExploreAll holds O(Bell(n)). At Workers 1
	// it is a function of the input; with more workers it follows the order
	// their jobs add points in.
	MaxResident int64
	// MemoHits / MemoMisses count group-pricing memo lookups (0 with
	// MemoOff). Every tree edge does exactly one lookup, so
	// MemoHits+MemoMisses equals GroupPricings on memoized runs — the memo
	// changes where prices come from, never how many are needed.
	MemoHits   int64
	MemoMisses int64
	// MemoEntries is the number of (composition, avoid-multiset) evaluations
	// the walks stored; a key two walks both priced counts twice. Each walk
	// stores one entry per miss until its share of the exploration's entry
	// budget is full, so MemoEntries equals MemoMisses exactly when no walk
	// filled its share, and otherwise stays within the budget.
	MemoEntries int64
}

// maxPRMs is the largest exploration the engine accepts: Bell(25) is the
// last Bell number that fits in int64, and BBStats counts partitions in it.
const maxPRMs = 25

// groupEval is the outcome of pricing one PRM group against an avoid set:
// everything a design point needs from core.PRRModel.EstimateShared plus
// core.BitstreamModel.SizeBytes.
type groupEval struct {
	feasible bool
	errMsg   string
	region   floorplan.Region
	tiles    int
	bytes    int
	minCLB   float64
}

// bbJob is one subtree handed to a worker: the walk's state at the split
// depth, snapshotted by rec, so the worker resumes exactly where a sequential
// walk would continue. seq is the enumeration index of the job's first leaf,
// so results keep the sequential order whichever worker runs them, and
// tiles/bytes/minRU are the running objective bounds rec carried down to it.
type bbJob struct {
	members              [][]int
	evals                []groupEval
	placed               []floorplan.Region
	firstBad             int
	needLB               []floorplan.Need
	tilesLB              []int
	lastLabel            []int
	pendLabel, pendClass int
	seq                  uint64
	tiles, bytes         int
	minRU                float64
}

// bbRun is the per-exploration shared state.
type bbRun struct {
	e      *Explorer
	prms   []PRM
	n      int
	bounds []elemBound
	windex *device.WindowIndex
	ext    extTable
	bit    core.BitstreamModel

	fitPrune bool
	domPrune bool
	pareto   bool
	// sym enables the interchangeable-PRM collapse: classOf maps each PRM to
	// its signature class (classifyPRMs) and workers enumerate only canonical
	// RGS — per class, group labels non-decreasing in element order.
	sym     bool
	classOf []int
	classes int
	// memo gives every walk of this run its own (composition,
	// avoid-multiset) group-pricing memo (see memo.go).
	memo bool
	// front is the exploration's one Pareto front (Pareto mode only): every
	// worker walk adds its feasible leaves to it and prunes against it.
	front *ParetoFront

	// jobCh carries the root walk's subtree jobs to the workers.
	jobCh   chan *bbJob
	ctx     context.Context
	stop    atomic.Bool
	visit   func(DesignPoint) bool
	visitMu sync.Mutex
}

// bbState is one DFS walk's state: the root walk down to the split depth, or
// a worker's walk over the subtree jobs it drains. Pricing is incremental
// along the RGS prefix: each group's evaluation (region, tiles, bytes, RU)
// lives on a per-group stack, and extending the partition only re-prices the
// groups whose avoid set actually changed — appending a new group prices one
// group; joining group g re-prices groups g..k-1. No cache keys, no string
// allocation, no re-walk of the whole partition per leaf.
type bbState struct {
	run     *bbRun
	members [][]int
	// evals/placed are the priced-group stack, valid for groups 0..k-1 when
	// firstBad < 0, else for groups 0..firstBad (mirroring Evaluate, which
	// stops pricing at the first infeasible group).
	evals    []groupEval
	placed   []floorplan.Region
	firstBad int
	// needLB / tilesLB are the per-group monotone bounds (max over members).
	needLB  []floorplan.Need
	tilesLB []int
	// lastLabel (symmetry mode) is the permanent per-class symmetry floor:
	// the highest label an element of the class joined at, or a frozen
	// opener's label (see mrgs.go for the reduction rule). pendLabel/
	// pendClass track the most recent group opening while it is still
	// swappable: alive until another group opens, frozen into lastLabel if
	// its group recurs first. pendLabel is -1 when no opening is pending.
	lastLabel []int
	pendLabel int
	pendClass int

	// front is run.front on worker walks and nil on the root walk, which
	// carves every job without dominance pruning: at Workers 1 the worker
	// then meets the jobs in enumeration order against a front only it
	// writes, so every counter is a function of the input.
	front *ParetoFront
	seq   uint64
	nodes int

	// split is the depth at which this walk stops descending and hands the
	// subtree to the workers instead; subtrees counts the jobs handed off.
	// Only the root walk sets split; workers leave it 0, a depth their
	// resumed walks never revisit.
	split    int
	subtrees int

	// Dominance-threshold cache: dominanceThreshold depends only on the front
	// contents (version) and the node's (reconfig, minRU) bounds, which repeat
	// across huge stretches of the walk, so the last computed threshold is
	// kept here and reused across nodes until any input changes. The version
	// is read before the threshold is computed, so a cached threshold is never
	// older than its version: the cache only ever skips a recomputation that
	// would give the same answer.
	domT     int
	domVer   uint64
	domRec   time.Duration
	domRU    float64
	domReady bool

	// memBack is the n×n backing matrix for members: group g's slice grows
	// in row g, so opening and re-opening groups never allocates.
	memBack []int
	// saveEvalsBuf/savePlacedBuf are the depth-indexed save/restore buffers
	// for rec's join path: depth i snapshots into row i, so backtracking
	// never allocates either. Row width is n (a prefix has at most n groups).
	saveEvalsBuf  []groupEval
	savePlacedBuf []floorplan.Region
	// msc holds the memo key encoder's scratch buffers; memo is this walk's
	// own pricing memo (see memo.go); psc is the scratch the cost models
	// price a memo miss (or, memo off, every edge) into.
	msc  memoScratch
	memo groupMemo
	psc  priceScratch

	// local counters, summed into BBStats once every walk has finished
	evaluated, prunedFit, prunedDom, collapsed, pricings int64
	memoHits, memoMisses                                 int64
}

// newBBState allocates a walk whose DFS state is preallocated at n×n scale,
// so the walk itself never allocates: the members matrix, the priced-group
// stacks, the bound stacks, and the per-depth save/restore rows (see rec).
// memoCap is the most entries the walk's memo stores.
func newBBState(r *bbRun, memoCap int) *bbState {
	n := r.n
	s := &bbState{
		run:           r,
		members:       make([][]int, 0, n),
		evals:         make([]groupEval, 0, n),
		placed:        make([]floorplan.Region, 0, n),
		firstBad:      -1,
		needLB:        make([]floorplan.Need, 0, n),
		tilesLB:       make([]int, 0, n),
		lastLabel:     make([]int, r.classes),
		pendLabel:     -1,
		memBack:       make([]int, n*n),
		saveEvalsBuf:  make([]groupEval, n*n),
		savePlacedBuf: make([]floorplan.Region, n*n),
	}
	if r.memo {
		s.memo = newGroupMemo(memoCap)
	}
	return s
}

// tally adds the walk's counters to st.
func (s *bbState) tally(st *BBStats) {
	st.Evaluated += s.evaluated
	st.PrunedFit += s.prunedFit
	st.PrunedDominated += s.prunedDom
	st.CollapsedSymmetry += s.collapsed
	st.GroupPricings += s.pricings
	st.MemoHits += s.memoHits
	st.MemoMisses += s.memoMisses
	st.MemoEntries += int64(s.memo.entries())
}

// reprice re-derives the priced-group stack from group `from` on, stopping
// at the first infeasible group exactly like Evaluate does.
func (s *bbState) reprice(from int) {
	// Keep the stacks sized to the group count even when an infeasible
	// prefix makes pricing moot: rec's save/restore slices them at group
	// indexes and relies on len(evals) == len(members) at every node.
	k := len(s.members)
	for len(s.evals) < k {
		s.evals = append(s.evals, groupEval{})
		s.placed = append(s.placed, floorplan.Region{})
	}
	s.evals = s.evals[:k]
	s.placed = s.placed[:k]
	if s.firstBad >= 0 && s.firstBad < from {
		return
	}
	s.firstBad = -1
	for g := from; g < k; g++ {
		ev := s.priceEdge(g)
		s.evals[g] = ev
		if !ev.feasible {
			s.firstBad = g
			return
		}
		s.placed[g] = ev.region
	}
}

// repriceSave is reprice for the join path: it snapshots each group's prior
// evaluation into the caller's save rows (at off) before overwriting it and
// returns how many groups were touched, so backtracking restores exactly the
// entries that changed instead of the whole suffix. Join never changes the
// group count, so no stack padding is needed (reprice handles the open and
// prefix-rebuild paths, which can).
func (s *bbState) repriceSave(from, off int) int {
	k := len(s.members)
	if s.firstBad >= 0 && s.firstBad < from {
		return 0
	}
	prevFB := s.firstBad
	s.firstBad = -1
	touched := 0
	for g := from; g < k; g++ {
		s.saveEvalsBuf[off+touched] = s.evals[g]
		s.savePlacedBuf[off+touched] = s.placed[g]
		touched++
		ev := s.priceEdge(g)
		s.evals[g] = ev
		if !ev.feasible {
			s.firstBad = g
			return touched
		}
		if g == from && g < k-1 && prevFB < 0 && ev.region == s.placed[g] {
			// Suffix skip: only group `from` changed membership (a join), and
			// its re-priced window landed exactly where the parent's pricing
			// put it. The stack held a fully feasible pricing (prevFB < 0), so
			// every later group sees the same avoid multiset it was priced
			// against — those evaluations are still exact, and repricing would
			// return identical values (including identical regions), keeping
			// the whole stack consistent.
			return touched
		}
		s.placed[g] = ev.region
	}
	return touched
}

// skip charges a pruned subtree: count its leaves and keep the enumeration
// index aligned so later leaves keep their sequential positions.
func (s *bbState) skip(leaves int64, dominated bool, depth int) {
	if dominated {
		s.prunedDom += leaves
		metBBPruneDepthDom.Observe(float64(depth))
	} else {
		s.prunedFit += leaves
		metBBPruneDepthFit.Observe(float64(depth))
	}
	s.seq += uint64(leaves)
}

// leaf prices nothing new — the group stack already holds the full
// partition — and emits the design point, which is field-for-field what
// Evaluate would return for these groups.
func (s *bbState) leaf() bool {
	r := s.run
	s.evaluated++
	seq := s.seq
	s.seq++
	dp := DesignPoint{Feasible: true, MinRU: 100}
	priced := len(s.members)
	if s.firstBad >= 0 {
		priced = s.firstBad
		dp.Feasible = false
		dp.Infeasibility = s.evals[s.firstBad].errMsg
	}
	for g := 0; g < priced; g++ {
		ev := &s.evals[g]
		dp.TotalTiles += ev.tiles
		dp.TotalBitstreamBytes += ev.bytes
		if ev.bytes > dp.MaxBitstreamBytes {
			dp.MaxBitstreamBytes = ev.bytes
		}
		if ev.minCLB < dp.MinRU {
			dp.MinRU = ev.minCLB
		}
	}
	if dp.Feasible {
		dp.WorstReconfig = r.e.Estimator.Estimate(dp.MaxBitstreamBytes)
	}
	if r.pareto {
		// The group copy is deferred until a point survives the dominance
		// check: infeasible leaves and dominated points never need their
		// Groups, and the per-leaf copy dominated the allocation profile at
		// n=16-scale walks. Dominated() is exactly Add()'s drop test, and
		// dominance reads only the objectives, so the front is unchanged.
		if dp.Feasible && !s.front.Dominated(&dp) {
			dp.Groups = copyGroups(s.members)
			s.front.Add(dp, seq)
		}
		return true
	}
	dp.Groups = copyGroups(s.members)
	r.visitMu.Lock()
	ok := r.visit(dp)
	r.visitMu.Unlock()
	if !ok {
		r.stop.Store(true)
		return false
	}
	return true
}

// rec assigns element i to each candidate group in RGS order, bounding and
// pruning before any pricing happens. tilesLB/bytesLB/minRUub are the
// running objective bounds for the current prefix: every leaf below prices
// at least tilesLB total tiles, at least bytesLB worst bitstream bytes, and
// at most minRUub min-RU.
func (s *bbState) rec(i int, tilesLB, bytesLB int, minRUub float64) bool {
	r := s.run
	s.nodes++
	if s.nodes&255 == 0 && (r.ctx.Err() != nil || r.stop.Load()) {
		return false
	}
	if i == s.split {
		s.handOff(tilesLB, bytesLB, minRUub)
		return true
	}
	if i == r.n {
		return s.leaf()
	}
	u := len(s.members)
	eb := &r.bounds[i]
	if r.fitPrune && !eb.feasible {
		// Element i can never be placed: every partition below is
		// infeasible no matter how it is grouped.
		s.skip(r.ext.leaves(r.n-i, u), false, i)
		return true
	}
	gMin, ci := 0, 0
	if r.sym {
		// Symmetry floor: labels below the class's floor begin reducible
		// fiber members, each pricing identically to a representative
		// enumerated elsewhere (see mrgs.go for the reduction rule). All
		// skipped labels join existing groups (floors are in-use labels, so
		// gMin <= u-1 here), so each subtree holds leaves(n-i-1, u)
		// partitions.
		ci = r.classOf[i]
		gMin = s.lastLabel[ci]
		if s.pendClass == ci && s.pendLabel > gMin {
			gMin = s.pendLabel
		}
		if gMin > 0 {
			skipped := int64(gMin) * r.ext.leaves(r.n-i-1, u)
			s.collapsed += skipped
			s.seq += uint64(skipped)
		}
	}
	// The bytes and RU bounds depend only on the element, not on which group
	// it joins, so they are hoisted out of the child loop — and the dominance
	// bound collapses to one cached tiles threshold per front version (see
	// dominanceThreshold), recomputed only when a leaf below actually changed
	// the front. The prune decisions are identical to recomputing the
	// threshold on every edge.
	cbLB := bytesLB
	if eb.minBytes > cbLB {
		cbLB = eb.minBytes
	}
	cRU := minRUub
	if eb.maxRU < cRU {
		cRU = eb.maxRU
	}
	var recLB time.Duration
	if r.domPrune && s.front != nil {
		recLB = r.e.Estimator.Estimate(cbLB)
	}
	for g := gMin; g <= u; g++ {
		childUsed := u
		if g == u {
			childUsed = u + 1
		}
		leaves := r.ext.leaves(r.n-i-1, childUsed)

		// Monotone fit bound: the group's window lower bound only grows as
		// members join; if no fabric run can hold it, no completion can
		// ever place this group. (A new singleton group passed its solo
		// empty-fabric estimate in elemBounds, so only joins are checked.)
		var need floorplan.Need
		var groupTiles int
		if g < u {
			need = maxNeed(s.needLB[g], eb.minNeed)
			if r.fitPrune && !r.windex.CanHold(need.Composition()) {
				s.skip(leaves, false, i)
				continue
			}
			groupTiles = s.tilesLB[g]
			if eb.minTiles > groupTiles {
				groupTiles = eb.minTiles
			}
		} else {
			need = eb.minNeed
			groupTiles = eb.minTiles
		}

		// Objective lower bounds for the child prefix.
		ctLB := tilesLB + groupTiles
		if g < u {
			ctLB = tilesLB - s.tilesLB[g] + groupTiles
		}
		if r.domPrune && s.front != nil {
			if v := s.front.version.Load(); !s.domReady || s.domVer != v || s.domRec != recLB || s.domRU != cRU {
				s.domT = s.front.dominanceThreshold(recLB, cRU)
				s.domVer, s.domRec, s.domRU = v, recLB, cRU
				s.domReady = true
			}
			if ctLB >= s.domT {
				s.skip(leaves, true, i)
				continue
			}
		}

		savedLast, savedPendL, savedPendC, savedFroze := 0, 0, 0, -1
		if r.sym {
			savedLast = s.lastLabel[ci]
			savedPendL, savedPendC = s.pendLabel, s.pendClass
			if g < u {
				if g == s.pendLabel {
					// The pending opener's group recurred before any other
					// group opened: its floor freezes in permanently.
					savedFroze = s.lastLabel[s.pendClass]
					if g > s.lastLabel[s.pendClass] {
						s.lastLabel[s.pendClass] = g
					}
					s.pendLabel = -1
				}
				s.lastLabel[ci] = g
			} else {
				s.pendLabel, s.pendClass = g, ci
			}
		}
		var ok bool
		if g < u {
			savedMemLen := len(s.members[g])
			savedNeed, savedTiles := s.needLB[g], s.tilesLB[g]
			savedFB := s.firstBad
			s.members[g] = append(s.members[g], i)
			s.needLB[g], s.tilesLB[g] = need, groupTiles
			// repriceSave snapshots exactly the stack entries it overwrites
			// into this depth's rows of the save buffers (each rec frame owns
			// row i exclusively), so backtracking restores only what changed —
			// usually one group, thanks to the suffix skip.
			off := i * r.n
			touched := s.repriceSave(g, off)
			ok = s.rec(i+1, ctLB, cbLB, cRU)
			s.members[g] = s.members[g][:savedMemLen]
			s.needLB[g], s.tilesLB[g] = savedNeed, savedTiles
			copy(s.evals[g:g+touched], s.saveEvalsBuf[off:off+touched])
			copy(s.placed[g:g+touched], s.savePlacedBuf[off:off+touched])
			s.firstBad = savedFB
		} else {
			// Open group u in its own row of the members matrix: the row is
			// reused every time label u re-opens at this or a later element.
			n := r.n
			row := s.memBack[u*n : u*n : u*n+n]
			s.members = append(s.members, append(row, i))
			s.needLB = append(s.needLB, need)
			s.tilesLB = append(s.tilesLB, groupTiles)
			s.reprice(u)
			ok = s.rec(i+1, ctLB, cbLB, cRU)
			s.members = s.members[:u]
			s.needLB = s.needLB[:u]
			s.tilesLB = s.tilesLB[:u]
			s.evals = s.evals[:u]
			s.placed = s.placed[:u]
			if s.firstBad >= u {
				s.firstBad = -1
			}
		}
		if r.sym {
			s.lastLabel[ci] = savedLast
			if savedFroze >= 0 {
				s.lastLabel[savedPendC] = savedFroze
			}
			s.pendLabel, s.pendClass = savedPendL, savedPendC
		}
		if !ok {
			return false
		}
	}
	return true
}

// handOff snapshots the walk at the split depth into a subtree job, sends it
// to the workers and advances the enumeration index past the subtree's
// leaves, as a pruned subtree would, so the next job's first leaf keeps its
// sequential position.
func (s *bbState) handOff(tilesLB, bytesLB int, minRUub float64) {
	j := &bbJob{
		members:   copyGroups(s.members),
		evals:     slices.Clone(s.evals),
		placed:    slices.Clone(s.placed),
		firstBad:  s.firstBad,
		needLB:    slices.Clone(s.needLB),
		tilesLB:   slices.Clone(s.tilesLB),
		lastLabel: slices.Clone(s.lastLabel),
		pendLabel: s.pendLabel,
		pendClass: s.pendClass,
		seq:       s.seq,
		tiles:     tilesLB,
		bytes:     bytesLB,
		minRU:     minRUub,
	}
	s.subtrees++
	s.run.jobCh <- j
	s.seq += uint64(s.run.ext.leaves(s.run.n-s.split, len(s.members)))
}

// runJob restores job j's snapshot into the worker's walk and resumes rec at
// the split depth.
func (s *bbState) runJob(j *bbJob, depth int) {
	n := s.run.n
	s.members = s.members[:0]
	for g, m := range j.members {
		s.members = append(s.members, append(s.memBack[g*n:g*n:g*n+n], m...))
	}
	s.evals = append(s.evals[:0], j.evals...)
	s.placed = append(s.placed[:0], j.placed...)
	s.firstBad = j.firstBad
	s.needLB = append(s.needLB[:0], j.needLB...)
	s.tilesLB = append(s.tilesLB[:0], j.tilesLB...)
	copy(s.lastLabel, j.lastLabel)
	s.pendLabel, s.pendClass = j.pendLabel, j.pendClass
	s.seq = j.seq
	s.rec(depth, j.tiles, j.bytes, j.minRU)
}

// autoSplitDepth picks the shallowest split that still feeds the workers:
// the smallest k with Bell(k) >= 4*workers, kept shallow because the root
// walk carves the jobs without dominance pruning.
func autoSplitDepth(n, workers int) int {
	k := 1
	for k < n-3 && bellNumber(k) < 4*workers {
		k++
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// exploreBB is the engine shared by the callback and Pareto entry points. In
// Pareto mode it returns the final front (already expanded back to concrete
// partitions when the symmetry collapse was active); in callback mode the
// returned slice is nil.
func (e *Explorer) exploreBB(ctx context.Context, prms []PRM, opts BBOptions, pareto bool, visit func(DesignPoint) bool) ([]DesignPoint, BBStats, error) {
	n := len(prms)
	var stats BBStats
	if n == 0 {
		return nil, stats, ctx.Err()
	}
	if n > maxPRMs {
		return nil, stats, fmt.Errorf("dse: %d PRMs exceed the %d the exploration counters can represent (Bell(%d) overflows int64)",
			n, maxPRMs, maxPRMs+1)
	}
	ctx, span := obs.StartSpan(ctx, "dse.bb")
	defer span.End()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := opts.splitDepth
	if k <= 0 {
		k = autoSplitDepth(n, workers)
	}
	if k > n {
		k = n
	}

	ct := classifyPRMs(prms)
	sym := opts.Symmetry == SymmetryAuto && ct.hasDuplicates()
	// Group states recur across partitions whether or not two PRMs share a
	// signature (see memo.go), so the memo runs on every exploration whose
	// key it can encode.
	memoOn := opts.Memo == MemoAuto &&
		memoSupported(ct.classes(), e.Device.Fabric.Rows, len(e.Device.Fabric.Columns))
	metSymClasses.Add(int64(ct.classes()))

	run := &bbRun{
		e:        e,
		prms:     prms,
		n:        n,
		bounds:   e.elemBounds(prms),
		windex:   e.Device.Fabric.WindowIndex(),
		ext:      newExtTable(n),
		bit:      core.NewBitstreamModel(e.Device.Params),
		fitPrune: !opts.DisableFitPrune,
		domPrune: pareto && opts.DominancePrune,
		pareto:   pareto,
		sym:      sym,
		classOf:  ct.classOf,
		classes:  ct.classes(),
		ctx:      ctx,
		memo:     memoOn,
		visit:    visit,
	}
	if pareto {
		run.front = &ParetoFront{}
	}

	// The walk runs once, sequentially, down to depth k, pricing and
	// charging every prefix there by the same rules as below it. Each
	// surviving prefix becomes a job, handed to the workers as soon as it is
	// cut, so the first subtree starts while the walk carves the rest.
	start := time.Now()
	workers = min(workers, bellNumber(k))
	run.jobCh = make(chan *bbJob)
	// The root walk only prices the prefixes above the split depth (a few
	// thousand edges at 64 workers), so it gets 1/64 of the memo budget and
	// the workers split the rest evenly.
	budget := opts.memoBudget
	if budget <= 0 {
		budget = memoBudget
	}
	rootCap := budget / 64
	workerCap := (budget - rootCap) / workers
	walks := make([]*bbState, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range walks {
		// The walk, and its memo, lives for the worker's whole job stream, so
		// entries learned in one subtree stay warm for the next.
		s := newBBState(run, workerCap)
		s.front = run.front
		walks[w] = s
		go func() {
			defer wg.Done()
			// Each worker owns one child span of dse.bb covering the subtree
			// jobs it drains, so a request's trace shows how the partition
			// space was carved up (spans are goroutine-local; the parent span
			// must not be touched from here).
			_, wspan := obs.StartSpan(ctx, "dse.bb.worker")
			defer wspan.End()
			done := 0
			for j := range run.jobCh {
				if ctx.Err() != nil || run.stop.Load() {
					continue
				}
				s.runJob(j, k)
				done++
			}
			wspan.SetAttr("subtree_jobs", done)
		}()
	}
	root := newBBState(run, rootCap)
	root.split = k
	root.rec(0, 0, 0, 200)
	close(run.jobCh)
	wg.Wait()
	span.SetAttr("prms", n).SetAttr("subtrees", root.subtrees).SetAttr("split_depth", k).SetAttr("workers", workers)
	metBBSubtrees.Add(int64(root.subtrees))

	if err := ctx.Err(); err != nil {
		span.SetAttr("cancelled", true)
		return nil, stats, err
	}

	stats = BBStats{
		Partitions: int64(bellNumber(n)),
		Classes:    ct.classes(),
		Subtrees:   root.subtrees,
		SplitDepth: k,
	}
	root.tally(&stats)
	for _, s := range walks {
		s.tally(&stats)
	}
	var points []DesignPoint
	if pareto {
		stats.MaxResident = int64(run.front.peak)
		points = run.front.Points()
		if sym && len(points) > 0 {
			// Rehydrate the representative front: the engine only priced the
			// lex-least member of each fiber, but the flat front contains
			// every member of each surviving fiber (equal objectives are
			// never dominated away), in full-space enumeration order.
			points = expandFront(&ct, run.ext, points)
		}
		stats.FrontSize = len(points)
	}
	metBBExplorations.Inc()
	metBBEvaluated.Add(stats.Evaluated)
	metBBPrunedFit.Add(stats.PrunedFit)
	metBBPrunedDom.Add(stats.PrunedDominated)
	metSymCollapsed.Add(stats.CollapsedSymmetry)
	if stats.Partitions > 0 {
		metSymCollapsePct.Set(100 * stats.CollapsedSymmetry / stats.Partitions)
	}
	metBBGroupPricings.Add(stats.GroupPricings)
	metMemoHits.Add(stats.MemoHits)
	metMemoMisses.Add(stats.MemoMisses)
	metMemoEntries.Add(stats.MemoEntries)
	if pareto {
		metBBFrontSize.Set(int64(stats.FrontSize))
		metBBResidentPeak.Set(stats.MaxResident)
	}
	elapsed := time.Since(start)
	span.SetAttr("evaluated", stats.Evaluated).
		SetAttr("pruned_fit", stats.PrunedFit).
		SetAttr("pruned_dominated", stats.PrunedDominated).
		SetAttr("collapsed_symmetry", stats.CollapsedSymmetry).
		SetAttr("memo_hits", stats.MemoHits).
		SetAttr("memo_misses", stats.MemoMisses).
		SetAttr("elapsed_ns", elapsed.Nanoseconds())
	return points, stats, nil
}

// ExploreBB streams every priced design point of the branch-and-bound
// exploration to visit. Points arrive in no particular cross-subtree order
// (visit is serialized but subtrees run concurrently); partitions skipped by
// the fit bound are all infeasible and are not delivered. With the symmetry
// collapse active (duplicate signatures under SymmetryAuto), only canonical
// fiber representatives are priced and delivered — use ExpandSymmetric to
// rehydrate a front derived from them. Returning false from visit halts the
// exploration early with a nil error. More than 25 PRMs is an error, returned
// before any walking: Bell(26) overflows the int64 counters in BBStats.
func (e *Explorer) ExploreBB(ctx context.Context, prms []PRM, opts BBOptions, visit func(DesignPoint) bool) (BBStats, error) {
	_, stats, err := e.exploreBB(ctx, prms, opts, false, visit)
	return stats, err
}

// ExploreParetoBB runs the branch-and-bound engine in streaming-Pareto mode:
// every worker feeds its feasible leaves to one online Pareto merger and
// prunes against it, and the merger's output does not depend on the order
// points arrive in, so the result is element-for-element identical to
// Pareto(ExploreAll(prms)) while resident memory stays O(front) instead of
// O(Bell(n)). When interchangeable PRMs let the symmetry
// collapse skip fibers, the representative front is expanded back to
// concrete partitions before returning, so callers see the same bit-exact
// front either way.
func (e *Explorer) ExploreParetoBB(ctx context.Context, prms []PRM, opts BBOptions) ([]DesignPoint, BBStats, error) {
	front, stats, err := e.exploreBB(ctx, prms, opts, true, nil)
	if err != nil {
		return nil, stats, err
	}
	return front, stats, nil
}

// bellNumber returns Bell(n), the number of set partitions of n elements,
// via the Bell triangle. Exact in int64 range through n = maxPRMs.
func bellNumber(n int) int {
	if n == 0 {
		return 1
	}
	row := []int{1}
	for i := 1; i < n; i++ {
		next := make([]int, len(row)+1)
		next[0] = row[len(row)-1]
		for j := range row {
			next[j+1] = next[j] + row[j]
		}
		row = next
	}
	return row[len(row)-1]
}

// copyGroups deep-copies a partition so a design point can outlive the
// worker's reusable member stack.
func copyGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// maxNeed takes the per-kind maximum of two window lower bounds.
func maxNeed(a, b floorplan.Need) floorplan.Need {
	if b.CLB > a.CLB {
		a.CLB = b.CLB
	}
	if b.DSP > a.DSP {
		a.DSP = b.DSP
	}
	if b.BRAM > a.BRAM {
		a.BRAM = b.BRAM
	}
	return a
}
