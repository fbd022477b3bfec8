package dse

import (
	"sort"

	"repro/internal/core"
)

// SymmetryMode selects whether the branch-and-bound engine collapses
// interchangeable PRMs. The zero value is SymmetryAuto.
type SymmetryMode int

const (
	// SymmetryAuto enables the symmetry collapse whenever at least two PRMs
	// share a requirement signature, and is a no-op otherwise. The expanded
	// front is always element-for-element identical to ExploreAll's, so
	// auto is safe as the default.
	SymmetryAuto SymmetryMode = iota
	// SymmetryOff explores the full partition space with no collapse.
	SymmetryOff
)

// classTable maps PRMs to equivalence classes of their cost-relevant
// signature: the five resource requirements fed to Eqs. (1)-(17). Names are
// excluded — two PRMs with equal requirements price identically inside any
// group under any avoid set, because EstimateShared merges per-resource
// maxima and never looks at identity. Classes are ordered by ascending
// signature tuple, so the numbering is deterministic for a given PRM multiset
// regardless of list order.
type classTable struct {
	// classOf maps each PRM index to its class id.
	classOf []int
	// count is the number of PRMs per class.
	count []int
	// rep is the lowest PRM index carrying each class signature.
	rep []int
}

// classes returns the number of distinct signatures.
func (ct *classTable) classes() int { return len(ct.count) }

// hasDuplicates reports whether any class holds two or more PRMs — the only
// case where the symmetry collapse removes anything.
func (ct *classTable) hasDuplicates() bool {
	for _, c := range ct.count {
		if c > 1 {
			return true
		}
	}
	return false
}

// sigLess orders requirement signatures by their field tuple.
func sigLess(a, b core.Requirements) bool {
	if a.LUTFFPairs != b.LUTFFPairs {
		return a.LUTFFPairs < b.LUTFFPairs
	}
	if a.LUTs != b.LUTs {
		return a.LUTs < b.LUTs
	}
	if a.FFs != b.FFs {
		return a.FFs < b.FFs
	}
	if a.DSPs != b.DSPs {
		return a.DSPs < b.DSPs
	}
	return a.BRAMs < b.BRAMs
}

// classifyPRMs buckets the PRMs into signature equivalence classes.
// core.Requirements is comparable, so the signature needs no hashing beyond
// Go's map key semantics.
func classifyPRMs(prms []PRM) classTable {
	ids := make(map[core.Requirements]int, len(prms))
	var sigs []core.Requirements
	for _, p := range prms {
		if _, ok := ids[p.Req]; !ok {
			ids[p.Req] = -1 // placeholder until sorted
			sigs = append(sigs, p.Req)
		}
	}
	sort.Slice(sigs, func(i, j int) bool { return sigLess(sigs[i], sigs[j]) })
	for i, sig := range sigs {
		ids[sig] = i
	}
	ct := classTable{
		classOf: make([]int, len(prms)),
		count:   make([]int, len(sigs)),
		rep:     make([]int, len(sigs)),
	}
	for i := range ct.rep {
		ct.rep[i] = -1
	}
	for i, p := range prms {
		c := ids[p.Req]
		ct.classOf[i] = c
		ct.count[c]++
		if ct.rep[c] < 0 {
			ct.rep[c] = i
		}
	}
	return ct
}

// ExpandSymmetric rehydrates a front of symmetry-representative points into
// the full set of concrete partitions: for each distinct fiber on the front
// it enumerates every member — the partitions whose min-element-ordered
// groups carry the same class-count vectors, which all price identically
// (see DESIGN.md §13) — and re-sorts the union by the objectives with the
// full-space enumeration index as the tie-break. A fiber can surface several
// representatives (see mrgs.go); the expansion dedupes them, so the result
// is element-for-element what Pareto(ExploreAll(prms)) contains for
// the same PRMs.
//
// Fronts produced without duplicates (every PRM its own class) are returned
// unchanged. The input points must be feasible, as Pareto fronts are.
func ExpandSymmetric(prms []PRM, front []DesignPoint) []DesignPoint {
	if len(front) == 0 {
		return front
	}
	ct := classifyPRMs(prms)
	if !ct.hasDuplicates() {
		return front
	}
	return expandFront(&ct, newExtTable(len(prms)), front)
}

// fiberSig encodes a partition's fiber identity — the ordered sequence of
// per-group class-count vectors — for the expansion's dedupe set.
func fiberSig(ct *classTable, groups [][]int) string {
	b := make([]byte, 0, 2*len(groups)*ct.classes())
	counts := make([]byte, ct.classes())
	for _, g := range groups {
		for i := range counts {
			counts[i] = 0
		}
		for _, m := range g {
			counts[ct.classOf[m]]++
		}
		b = append(b, counts...)
		b = append(b, 0xff)
	}
	return string(b)
}

// expandFront is ExpandSymmetric's core, reusing an already-built class table
// and extension-count table. Representatives sharing a fiber carry identical
// objectives and expand to the same member set, so each fiber is rehydrated
// exactly once.
func expandFront(ct *classTable, ext extTable, front []DesignPoint) []DesignPoint {
	var pts []frontPoint
	seen := make(map[string]bool, len(front))
	for _, rep := range front {
		sig := fiberSig(ct, rep.Groups)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		dp := rep
		forEachFiberRGS(ct, rep.Groups, func(rgs []int) {
			dp.Groups = decodeGroups(rgs)
			pts = append(pts, frontPoint{dp: dp, seq: rgsRank(ext, rgs)})
		})
	}
	sort.Slice(pts, func(i, j int) bool { return frontLess(&pts[i], &pts[j]) })
	out := make([]DesignPoint, len(pts))
	for i := range pts {
		out[i] = pts[i].dp
	}
	return out
}
