package dse

import (
	"sort"
	"time"
)

// frontPoint pairs a feasible design point with its global enumeration
// index, the final tie-break that makes the streaming front reproduce
// Pareto()'s stable input-order exactly.
type frontPoint struct {
	dp  DesignPoint
	seq uint64
}

// ParetoFront is an online Pareto merger over the same dominance order
// Pareto() filters by: smaller TotalTiles, smaller WorstReconfig, larger
// MinRU. Points stream in one at a time (tagged with their position in the
// sequential enumeration) and the front holds only the currently
// non-dominated ones, so resident memory is O(front), not O(points seen).
//
// Points() is element-for-element identical to Pareto(all points added), in
// the same deterministic order: the front is kept sorted by (TotalTiles,
// WorstReconfig asc, MinRU desc, enumeration index), which is exactly
// Pareto()'s stable sort.
type ParetoFront struct {
	pts []frontPoint
	// version counts mutations (successful Adds). The branch-and-bound
	// engine caches dominanceThreshold per (node, version) and recomputes
	// only when the front actually changed, so its pruning decisions stay
	// bit-identical to computing the threshold afresh on every tree edge.
	version uint64
	// peak is the largest size the front has reached.
	peak int
}

// dominates reports whether a strictly-Pareto-dominates b on the three
// exploration objectives (mirrors Pareto()'s filter).
func dominates(a, b *DesignPoint) bool {
	return a.TotalTiles <= b.TotalTiles && a.WorstReconfig <= b.WorstReconfig && a.MinRU >= b.MinRU &&
		(a.TotalTiles < b.TotalTiles || a.WorstReconfig < b.WorstReconfig || a.MinRU > b.MinRU)
}

// frontLess orders front points the way Pareto() sorts its output, with the
// enumeration index standing in for "input order" on exact objective ties.
func frontLess(a, b *frontPoint) bool {
	if a.dp.TotalTiles != b.dp.TotalTiles {
		return a.dp.TotalTiles < b.dp.TotalTiles
	}
	if a.dp.WorstReconfig != b.dp.WorstReconfig {
		return a.dp.WorstReconfig < b.dp.WorstReconfig
	}
	if a.dp.MinRU != b.dp.MinRU {
		return a.dp.MinRU > b.dp.MinRU
	}
	return a.seq < b.seq
}

// Dominated reports whether an existing front point strictly dominates dp —
// exactly the test that makes Add drop a point. Callers use it to skip
// expensive point construction (the branch-and-bound engine defers its group
// copy) before offering dp; dominance reads only the three objectives, so a
// partially-built point with correct objectives answers identically.
func (f *ParetoFront) Dominated(dp *DesignPoint) bool {
	for i := range f.pts {
		if dominates(&f.pts[i].dp, dp) {
			return true
		}
	}
	return false
}

// Add offers one feasible design point to the front. It returns false when
// an existing front point dominates dp (dp is dropped); otherwise dp joins
// the front and every point dp dominates is evicted. Infeasible points must
// be filtered by the caller, as Pareto() does.
func (f *ParetoFront) Add(dp DesignPoint, seq uint64) bool {
	for i := range f.pts {
		if dominates(&f.pts[i].dp, &dp) {
			return false
		}
	}
	kept := f.pts[:0]
	for i := range f.pts {
		if !dominates(&dp, &f.pts[i].dp) {
			kept = append(kept, f.pts[i])
		}
	}
	f.pts = kept
	np := frontPoint{dp: dp, seq: seq}
	at := sort.Search(len(f.pts), func(i int) bool { return frontLess(&np, &f.pts[i]) })
	f.pts = append(f.pts, frontPoint{})
	copy(f.pts[at+1:], f.pts[at:])
	f.pts[at] = np
	f.version++
	f.peak = max(f.peak, len(f.pts))
	return true
}

// Merge folds another front into this one, preserving exactness: merging
// per-subtree fronts in enumeration order yields the same front as streaming
// every point through one merger, because Pareto(A ∪ B) =
// Pareto(Pareto(A) ∪ Pareto(B)).
func (f *ParetoFront) Merge(o *ParetoFront) {
	for i := range o.pts {
		f.Add(o.pts[i].dp, o.pts[i].seq)
	}
}

// dominanceThreshold answers the branch-and-bound engine's subtree question
// — does some front point strictly dominate EVERY design point with
// tilesLB <= TotalTiles, reconfigLB <= WorstReconfig and MinRU <= minRUub? —
// for fixed (reconfigLB, minRUub), as a single tiles threshold T: the answer
// is yes iff tilesLB >= T. The strictness test runs against the bounds, so a
// yes proves strict dominance of every point in the box, and the engine may
// discard the whole subtree without changing the exact front (ties survive:
// a point equal to a front point is never strictly inside the box's
// dominated region). For each front point with q.WorstReconfig <=
// reconfigLB and q.MinRU >= minRUub, a box with tilesLB >= q.TotalTiles is
// dominated when one of those axes is strict, and tilesLB > q.TotalTiles
// when both are ties (the tiles axis must then supply the strictness) — so
// T is the minimum of q.TotalTiles (+1 on double ties) over qualifying
// points, and maxInt when none qualify. The engine computes T once per tree
// node per front version and compares each child's tiles bound against it;
// pareto_stream_test.go checks it against a point-by-point scan.
func (f *ParetoFront) dominanceThreshold(reconfigLB time.Duration, minRUub float64) int {
	const maxInt = int(^uint(0) >> 1)
	t := maxInt
	for i := range f.pts {
		q := &f.pts[i].dp
		if q.WorstReconfig > reconfigLB || q.MinRU < minRUub {
			continue
		}
		qt := q.TotalTiles
		if q.WorstReconfig == reconfigLB && q.MinRU == minRUub {
			if qt == maxInt {
				continue
			}
			qt++
		}
		if qt < t {
			t = qt
		}
	}
	return t
}

// Len returns the current front size.
func (f *ParetoFront) Len() int { return len(f.pts) }

// Points returns the front in Pareto()'s deterministic output order. An
// empty front returns nil, matching Pareto() on an all-infeasible input.
func (f *ParetoFront) Points() []DesignPoint {
	if len(f.pts) == 0 {
		return nil
	}
	out := make([]DesignPoint, len(f.pts))
	for i := range f.pts {
		out[i] = f.pts[i].dp
	}
	return out
}
