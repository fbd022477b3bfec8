package repro

// End-to-end integration: the complete life of a hardware-multitasking PR
// system, built exclusively through the public layers — synthesize all three
// paper PRMs, size and place disjoint PRRs with the cost models, implement
// each inside its region, generate and cross-validate every partial
// bitstream, relocate one PRM between homologous regions, and run the
// multitasking simulation over the resulting platform.

import (
	"context"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
	"repro/internal/icap"
	"repro/internal/par"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/synth"
)

func TestEndToEndSystem(t *testing.T) {
	dev, err := device.Lookup("XC6VLX240T")
	if err != nil {
		t.Fatal(err)
	}
	est := icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}

	// 1. Synthesize and size each PRM, placing PRRs disjointly.
	var avoid []floorplan.Region
	var specs []sim.Spec
	type placed struct {
		name string
		org  core.Organization
	}
	var regions []placed
	for _, name := range rtl.PaperPRMs() {
		m, err := rtl.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := synth.Synthesize(m, dev)
		model := &core.PRRModel{Device: dev, Avoid: avoid}
		res, err := model.Estimate(core.FromReport(rep))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		avoid = append(avoid, res.Org.Region)
		regions = append(regions, placed{name, res.Org})

		// 2. Implement inside the region; the organization must hold.
		parRes, err := par.PlaceAndRoute(m, dev, res.Org.Region)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !parRes.Placement.Routed() {
			t.Fatalf("%s: placement did not route", name)
		}
		timing, err := par.AnalyzeTiming(parRes.Module, parRes.Placement)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if timing.FmaxHz <= 0 {
			t.Fatalf("%s: no Fmax", name)
		}

		// 3. Generate the bitstream and cross-validate the size model.
		r := res.Org.Region
		prr := bitstream.PRR{Row: r.Row, Col: r.Col, H: r.H, W: r.W}
		data, err := bitstream.Generate(dev, prr, 2015)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := core.NewBitstreamModel(dev.Params).SizeBytes(res.Org); len(data) != want {
			t.Fatalf("%s: bitstream %d bytes, model %d", name, len(data), want)
		}
		if _, err := bitstream.Parse(data, dev.Params.FrameWords); err != nil {
			t.Fatalf("%s: generated bitstream does not parse: %v", name, err)
		}
		specs = append(specs, sim.Spec{Name: name, Req: core.FromReport(rep)})
	}

	// 4. Relocate the SDRAM bitstream one row up (homologous window).
	sd := regions[2]
	src := bitstream.PRR{Row: sd.org.Region.Row, Col: sd.org.Region.Col, H: sd.org.Region.H, W: sd.org.Region.W}
	dst := src
	dst.Row++
	if dst.Row+dst.H-1 <= dev.Fabric.Rows {
		words, err := bitstream.GenerateWords(dev, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := bitstream.Relocate(dev, words, src, dst)
		if err != nil {
			t.Fatalf("relocating %s: %v", sd.name, err)
		}
		if _, err := bitstream.ParseWords(moved, dev.Params.FrameWords); err != nil {
			t.Fatalf("relocated %s bitstream invalid: %v", sd.name, err)
		}
	}

	// 5. Run the multitasking simulation over the platform; PR must beat the
	// full-reconfiguration baseline.
	pr, err := sim.BuildGroups(dev, specs, [][]int{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sim.Mix{Jobs: 120, Seed: 42, MeanGap: 80 * time.Microsecond, MeanExec: 300 * time.Microsecond}.Generate(len(specs))
	if err != nil {
		t.Fatal(err)
	}
	run := func(plat sim.Platform) sim.Result {
		t.Helper()
		res, err := sim.Run(context.Background(), sim.Config{Platform: plat, Policy: sim.FCFSBestFit{}, Estimator: est}, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prRes := run(pr)
	fullRes := run(sim.BuildFullReconfig(dev, specs))
	if prRes.Completed != 120 || fullRes.Completed != 120 {
		t.Fatalf("job counts: PR %d, full %d", prRes.Completed, fullRes.Completed)
	}
	if prRes.MakespanNS >= fullRes.MakespanNS {
		t.Errorf("PR makespan %v did not beat full reconfiguration %v",
			time.Duration(prRes.MakespanNS), time.Duration(fullRes.MakespanNS))
	}
}
