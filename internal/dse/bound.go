package dse

import (
	"repro/internal/core"
	"repro/internal/floorplan"
)

// elemBound caches the monotone, placement-independent bounds for one PRM,
// computed once per exploration. Every quantity is derived from the sizing
// equations alone (core.PRRModel.CoverBound) plus one solo empty-fabric
// estimate, so it is valid for the PRM inside ANY group under ANY avoid set:
// requirements only grow as members join a group (§III.B merging takes
// per-resource maxima), which is what makes subtree pruning sound.
type elemBound struct {
	// feasible is false when the PRM can never be placed: its requirements
	// are not coverable in Rows rows, or its solo PRR has no window even on
	// the empty fabric (an avoid set only shrinks the window set). Any group
	// containing it — and therefore any partition assigning it — is
	// infeasible.
	feasible bool
	// minNeed lower-bounds the per-kind window column counts of any group
	// PRR containing this PRM.
	minNeed floorplan.Need
	// minTiles lower-bounds the tiles of any group PRR containing this PRM.
	minTiles int
	// minBytes lower-bounds the bitstream bytes of any group PRR containing
	// this PRM.
	minBytes int
	// maxRU upper-bounds this PRM's CLB utilization in any group PRR.
	maxRU float64
}

// elemBounds derives the per-PRM bound table for one exploration.
func (e *Explorer) elemBounds(prms []PRM) []elemBound {
	m := &core.PRRModel{Device: e.Device}
	out := make([]elemBound, len(prms))
	for i, prm := range prms {
		cb := m.CoverBound(prm.Req)
		out[i] = elemBound{
			feasible: cb.Coverable,
			minNeed:  cb.MinNeed,
			minTiles: cb.MinTiles,
			minBytes: cb.MinBytes,
			maxRU:    cb.MaxCLBRU,
		}
		if out[i].feasible {
			// Solo estimate on the empty fabric: if even that fails, no
			// window exists for any organization covering the PRM that the
			// Fig. 1 flow would pick, under any avoid set.
			if _, err := m.Estimate(prm.Req); err != nil {
				out[i].feasible = false
			}
		}
	}
	return out
}

// extTable counts RGS extensions: ext[r][u] is the number of restricted
// growth strings completing r further positions when u group labels are
// already in use — exactly the number of leaf partitions under a tree node,
// which is what the pruning counters charge when a subtree is skipped.
// ext[r][u] = u*ext[r-1][u] + ext[r-1][u+1]; ext[n][0] = Bell(n).
type extTable [][]int64

// newExtTable builds the table for partitions of n elements.
func newExtTable(n int) extTable {
	t := make(extTable, n+1)
	for r := 0; r <= n; r++ {
		t[r] = make([]int64, n+2)
	}
	for u := 0; u <= n+1; u++ {
		t[0][u] = 1
	}
	for r := 1; r <= n; r++ {
		for u := n; u >= 0; u-- {
			t[r][u] = int64(u)*t[r-1][u] + t[r-1][u+1]
		}
	}
	return t
}

// leaves returns the number of partitions below a node with remaining
// unassigned elements and used group labels.
func (t extTable) leaves(remaining, used int) int64 { return t[remaining][used] }
