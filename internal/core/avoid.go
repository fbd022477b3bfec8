package core

import "repro/internal/floorplan"

// Avoid-envelope canonicalization. Every PRRModel output — Estimate,
// EstimateShared, feasibility and the placed Region — depends on the Avoid
// field only through the *multiset* of regions it holds: the window search
// rejects a candidate position iff it overlaps any avoid region, so
// permutations (and duplicates beyond the first) of the same regions yield
// identical results. Callers that memoize priced groups (the DSE engine's
// group-pricing memo) therefore key on the regions sorted by RegionLess
// rather than the raw slice, so equivalent avoid sets share one entry.

// RegionLess is the canonical ordering of placed regions: by Row, then Col,
// then H, then W. It is a total order on distinct regions, so sorting by it
// produces one unique sequence per region multiset.
func RegionLess(a, b floorplan.Region) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.H != b.H {
		return a.H < b.H
	}
	return a.W < b.W
}
