package core

import (
	"fmt"

	"repro/internal/floorplan"
)

// SharedResult is the outcome of sizing one PRR for several time-multiplexed
// PRMs: the merged organization plus each PRM's individual result and its
// utilization of the shared region.
type SharedResult struct {
	Org      Organization
	Avail    Availability
	PerPRM   []Result      // each PRM's standalone estimate
	SharedRU []Utilization // each PRM's RU within the shared PRR
}

// EstimateShared sizes one PRR for PRMs that will time-multiplex it,
// following the paper's §III.B rule: each PRM is sized individually (its own
// H from the Fig. 1 flow), then the shared PRR takes the largest H and, per
// resource, the largest column count across the PRMs; the merged mix must
// itself admit a contiguous window.
func (m *PRRModel) EstimateShared(reqs []Requirements) (SharedResult, error) {
	var res SharedResult
	if err := m.EstimateSharedInto(reqs, &res); err != nil {
		return SharedResult{}, err
	}
	return res, nil
}

// EstimateSharedInto is EstimateShared writing into res, reusing the
// capacity of its PerPRM and SharedRU slices: a caller that prices many
// groups keeps one SharedResult and allocates nothing once the slices have
// grown. On error res holds partial results and must not be read.
func (m *PRRModel) EstimateSharedInto(reqs []Requirements, res *SharedResult) error {
	if len(reqs) == 0 {
		return fmt.Errorf("core: no PRMs for shared PRR")
	}
	res.PerPRM = res.PerPRM[:0]
	res.SharedRU = res.SharedRU[:0]
	merged := Organization{}
	for i, req := range reqs {
		r, err := m.Estimate(req)
		if err != nil {
			return fmt.Errorf("core: PRM %d: %w", i, err)
		}
		res.PerPRM = append(res.PerPRM, r)
		if r.Org.H > merged.H {
			merged.H = r.Org.H
		}
		if r.Org.WCLB > merged.WCLB {
			merged.WCLB = r.Org.WCLB
		}
		if r.Org.WDSP > merged.WDSP {
			merged.WDSP = r.Org.WDSP
		}
		if r.Org.WBRAM > merged.WBRAM {
			merged.WBRAM = r.Org.WBRAM
		}
		if r.Org.CLBReq > merged.CLBReq {
			merged.CLBReq = r.Org.CLBReq
		}
	}
	reg, ok := floorplan.FindWindow(&m.Device.Fabric, merged.H, merged.Need(), m.Avoid...)
	if !ok {
		return fmt.Errorf("core: merged PRR %dx%v has no feasible window on %s",
			merged.H, merged.Need(), m.Device.Name)
	}
	merged.Region = reg
	res.Org = merged
	res.Avail = m.availability(merged)
	for _, r := range res.PerPRM {
		res.SharedRU = append(res.SharedRU, utilization(r.Req, r.Org.CLBReq, res.Avail))
	}
	return nil
}
