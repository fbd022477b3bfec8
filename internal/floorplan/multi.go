package floorplan

import "fmt"

// Request names a PRR to place: its row count and column need (already
// derived from its PRMs by the cost model).
type Request struct {
	Name string
	H    int
	Need Need
}

// Placement is one placed PRR of a multi-PRR plan.
type Placement struct {
	Request
	Region Region
}

// Plan is a set of disjoint PRRs on one device.
type Plan struct {
	Placements []Placement
}

// PlaceAll places every requested PRR on the fabric without overlap, using
// the paper's search for each region in turn (largest width first, so the
// hardest-to-place regions claim fabric before fragmentation sets in). It
// fails if any region cannot be placed; hardware multitasking systems built
// on this call it during static floorplanning.
func (p *Placer) PlaceAll(reqs []Request) (*Plan, error) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	// Stable selection sort by descending area: deterministic and tiny n.
	for i := 0; i < len(order); i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			ai := reqs[order[best]].H * reqs[order[best]].Need.Width()
			aj := reqs[order[j]].H * reqs[order[j]].Need.Width()
			if aj > ai {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}

	plan := &Plan{}
	placed := append([]Region(nil), p.Reserved...)
	for _, idx := range order {
		req := reqs[idx]
		reg, ok := FindWindow(p.Fabric, req.H, req.Need, placed...)
		if !ok {
			return nil, fmt.Errorf("floorplan: no feasible region for PRR %q needing %dx%v after placing %d region(s)",
				req.Name, req.H, req.Need, len(plan.Placements))
		}
		placed = append(placed, reg)
		plan.Placements = append(plan.Placements, Placement{Request: req, Region: reg})
	}
	// Restore request order in the result.
	byName := make(map[string]Placement, len(plan.Placements))
	for _, pl := range plan.Placements {
		byName[pl.Name] = pl
	}
	ordered := make([]Placement, 0, len(reqs))
	for _, r := range reqs {
		ordered = append(ordered, byName[r.Name])
	}
	plan.Placements = ordered
	return plan, nil
}
