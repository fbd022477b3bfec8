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

	// Placements are stored at their request's index, so the plan lists
	// them in request order whatever the names.
	plan := &Plan{Placements: make([]Placement, len(reqs))}
	placed := append([]Region(nil), p.Reserved...)
	for n, idx := range order {
		req := reqs[idx]
		reg, ok := FindWindow(p.Fabric, req.H, req.Need, placed...)
		if !ok {
			return nil, fmt.Errorf("floorplan: no feasible region for PRR %q needing %dx%v after placing %d region(s)",
				req.Name, req.H, req.Need, n)
		}
		placed = append(placed, reg)
		plan.Placements[idx] = Placement{Request: req, Region: reg}
	}
	return plan, nil
}
