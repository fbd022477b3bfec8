package core

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

// TestCoverBoundSoundness is the admissibility property branch-and-bound
// pruning depends on: for randomized requirement sets, whenever the full
// model produces an organization (solo or as the shared PRR of a group
// containing the requirement), that organization must sit inside the
// envelope — per-kind window counts, tiles and bytes at or above the bound's
// minima, the member's CLB utilization at or below the bound's maximum.
func TestCoverBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, devName := range []string{"XC5VLX110T", "XC6VLX75T", "XC6VLX240T"} {
		dev, err := device.Lookup(devName)
		if err != nil {
			t.Fatal(err)
		}
		m := &PRRModel{Device: dev}
		bit := NewBitstreamModel(dev.Params)
		randReq := func() Requirements {
			luts := 50 + rng.Intn(2500)
			ffs := 50 + rng.Intn(2500)
			pairs := luts
			if ffs > pairs {
				pairs = ffs
			}
			return Requirements{
				LUTFFPairs: pairs + rng.Intn(300),
				LUTs:       luts,
				FFs:        ffs,
				DSPs:       rng.Intn(12),
				BRAMs:      rng.Intn(6),
			}
		}
		for trial := 0; trial < 200; trial++ {
			req := randReq()
			cb := m.CoverBound(req)

			check := func(label string, org Organization, memberRU float64) {
				t.Helper()
				if !cb.Coverable {
					t.Fatalf("%s/%s: model covered %+v but CoverBound says uncoverable", devName, label, req)
				}
				need := org.Need()
				if need.CLB < cb.MinNeed.CLB || org.WDSP < cb.MinNeed.DSP || org.WBRAM < cb.MinNeed.BRAM {
					t.Fatalf("%s/%s: org need %+v below bound %+v for %+v", devName, label, need, cb.MinNeed, req)
				}
				if org.Size() < cb.MinTiles {
					t.Fatalf("%s/%s: org tiles %d below bound %d for %+v", devName, label, org.Size(), cb.MinTiles, req)
				}
				if bytes := bit.SizeWords(org) * dev.Params.BytesPerWord; bytes < cb.MinBytes {
					t.Fatalf("%s/%s: org bytes %d below bound %d for %+v", devName, label, bytes, cb.MinBytes, req)
				}
				if memberRU > cb.MaxCLBRU+1e-9 {
					t.Fatalf("%s/%s: member RU %.3f above bound %.3f for %+v", devName, label, memberRU, cb.MaxCLBRU, req)
				}
			}

			if est, err := m.Estimate(req); err == nil {
				check("solo", est.Org, est.RU.CLB)
			}
			// Shared PRR of a random group containing req.
			reqs := []Requirements{req}
			for j := rng.Intn(3); j > 0; j-- {
				reqs = append(reqs, randReq())
			}
			if shared, err := m.EstimateShared(reqs); err == nil {
				check("shared", shared.Org, shared.SharedRU[0].CLB)
			}
		}
	}
}

// TestCoverBoundUncoverable: on a single-DSP-column device the DSP column
// is pinned, so a DSP demand beyond Rows * DSPPerCol has no covering
// organization at any height and must report Coverable == false. (Plain
// width overflow is deliberately NOT uncoverable here: organizations are
// unbounded in W, and it is the window search / WindowIndex.CanHold that rejects
// fabric-sized widths.)
func TestCoverBoundUncoverable(t *testing.T) {
	dev, err := device.New(device.Spec{
		Name: "ONE-DSP", Family: device.Virtex5, Rows: 2, Layout: "I C*4 D C*4 I",
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &PRRModel{Device: dev}
	// 2 rows * 8 DSP/col = 16 DSPs max.
	if cb := m.CoverBound(Requirements{LUTFFPairs: 100, LUTs: 80, FFs: 60, DSPs: 17}); cb.Coverable {
		t.Fatalf("17 DSPs on a 16-DSP fabric reported coverable: %+v", cb)
	}
	if cb := m.CoverBound(Requirements{LUTFFPairs: 100, LUTs: 80, FFs: 60, DSPs: 16}); !cb.Coverable {
		t.Fatal("16 DSPs on a 16-DSP fabric reported uncoverable")
	}
}
