package sim

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
)

// Spec names one PRM class and its resource requirements.
type Spec struct {
	Name string
	Req  core.Requirements
}

// transferVolumes derives the three transfer byte volumes of one placed PRR
// from the cost models: partial-bitstream load size (Eqs. (18)-(23)),
// context-save readback framing, and the restore bitstream with its
// GRESTORE trailer.
func transferVolumes(dev *device.Device, org core.Organization) (load, save, restore int, err error) {
	load = core.NewBitstreamModel(dev.Params).SizeBytes(org)
	r := org.Region
	save, err = bitstream.SaveTransferBytes(dev, bitstream.PRR{Row: r.Row, Col: r.Col, H: r.H, W: r.W})
	if err != nil {
		return 0, 0, 0, err
	}
	restore = load + 2*dev.Params.BytesPerWord // GRESTORE trailer
	return load, save, restore, nil
}

// BuildShared sizes one merged PRR for all specs (so any task runs in any
// slot), places slots copies of it, and prices each slot's transfer
// volumes. This is the fully time-multiplexed platform the preemptive
// policies exercise hardest.
func BuildShared(dev *device.Device, specs []Spec, slots int) (Platform, error) {
	if slots < 1 {
		return Platform{}, fmt.Errorf("sim: shared platform needs at least one slot")
	}
	if len(specs) == 0 {
		return Platform{}, fmt.Errorf("sim: no PRM specs")
	}
	reqs := make([]core.Requirements, len(specs))
	for i, sp := range specs {
		reqs[i] = sp.Req
	}
	shared, err := core.NewPRRModel(dev).EstimateShared(reqs)
	if err != nil {
		return Platform{}, err
	}
	placer := floorplan.NewPlacer(&dev.Fabric)
	fpReqs := make([]floorplan.Request, slots)
	for i := range fpReqs {
		fpReqs[i] = floorplan.Request{
			Name: fmt.Sprintf("slot%d", i), H: shared.Org.H, Need: shared.Org.Need(),
		}
	}
	plan, err := placer.PlaceAll(fpReqs)
	if err != nil {
		return Platform{}, fmt.Errorf("sim: placing %d shared slots: %w", slots, err)
	}
	load, save, restore, err := transferVolumes(dev, shared.Org)
	if err != nil {
		return Platform{}, err
	}
	var plat Platform
	compat := make([]int, slots)
	for i := range plan.Placements {
		plat.PRRs = append(plat.PRRs, PRR{
			Name: plan.Placements[i].Name, Tiles: shared.Org.Size(),
			LoadBytes: load, SaveBytes: save, RestoreBytes: restore,
		})
		compat[i] = i
	}
	for _, sp := range specs {
		plat.PRMs = append(plat.PRMs, PRM{Name: sp.Name, Compat: compat})
	}
	return plat, nil
}

// SingleSlot is the platform on which every spec time-multiplexes one slot
// of the given size, each load moving loadBytes over the ICAP. Context
// saves and restores are priced as whole-slot transfers of the same volume.
// It is the shape of the two §I comparison points: the full-reconfiguration
// baseline (BuildFullReconfig) and an oversized shared PRR, whose loadBytes
// is the bitstream size of the inflated organization.
func SingleSlot(name string, tiles, loadBytes int, specs []Spec) Platform {
	plat := Platform{
		PRRs: []PRR{{Name: name, Tiles: tiles, LoadBytes: loadBytes, SaveBytes: loadBytes, RestoreBytes: loadBytes}},
		PRMs: make([]PRM, len(specs)),
	}
	for i, sp := range specs {
		plat.PRMs[i] = PRM{Name: sp.Name, Compat: []int{0}}
	}
	return plat
}

// BuildFullReconfig is the §I non-PR baseline: one slot spanning the whole
// device, so every task switch reloads the full configuration bitstream.
func BuildFullReconfig(dev *device.Device, specs []Spec) Platform {
	return SingleSlot("device", dev.Fabric.Rows*dev.Fabric.NumColumns(), dev.FullBitstreamBytes(), specs)
}

// BuildGroups realizes one design point from the explorer: one PRR per
// group of spec indexes, sized and placed with the same in-order avoid
// accumulation the branch-and-bound pricing uses, so every feasible front
// point builds. Each PRM is compatible only with its group's slot.
func BuildGroups(dev *device.Device, specs []Spec, groups [][]int) (Platform, error) {
	if len(groups) == 0 {
		return Platform{}, fmt.Errorf("sim: no groups")
	}
	plat := Platform{PRMs: make([]PRM, len(specs))}
	var avoid []floorplan.Region
	for gi, g := range groups {
		if len(g) == 0 {
			return Platform{}, fmt.Errorf("sim: group %d is empty", gi)
		}
		reqs := make([]core.Requirements, len(g))
		for i, idx := range g {
			if idx < 0 || idx >= len(specs) {
				return Platform{}, fmt.Errorf("sim: group %d references unknown spec %d", gi, idx)
			}
			reqs[i] = specs[idx].Req
		}
		m := &core.PRRModel{Device: dev, Avoid: avoid}
		shared, err := m.EstimateShared(reqs)
		if err != nil {
			return Platform{}, fmt.Errorf("sim: sizing PRR for group %d: %w", gi, err)
		}
		avoid = append(avoid, shared.Org.Region)
		load, save, restore, err := transferVolumes(dev, shared.Org)
		if err != nil {
			return Platform{}, err
		}
		plat.PRRs = append(plat.PRRs, PRR{
			Name: fmt.Sprintf("prr%d", gi), Tiles: shared.Org.Size(),
			LoadBytes: load, SaveBytes: save, RestoreBytes: restore,
		})
		for _, idx := range g {
			if len(plat.PRMs[idx].Compat) > 0 {
				return Platform{}, fmt.Errorf("sim: spec %d appears in two groups", idx)
			}
			plat.PRMs[idx] = PRM{Name: specs[idx].Name, Compat: []int{gi}}
		}
	}
	for i := range plat.PRMs {
		if len(plat.PRMs[i].Compat) == 0 {
			return Platform{}, fmt.Errorf("sim: spec %d (%s) is in no group", i, specs[i].Name)
		}
	}
	return plat, nil
}
