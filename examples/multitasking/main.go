// Multitasking: the paper's motivating scenario (§I). Three hardware tasks
// — the FIR filter, the MIPS core and the SDRAM controller — time-multiplex
// PRRs on a Virtex-5 LX110T. The example sizes the PRRs with the cost
// models, runs a job stream through three system designs on the sim engine
// (dedicated PRRs, one shared PRR, full reconfiguration), and then prints
// ablation A5: growing the shared PRR until the PR system loses to full
// reconfiguration.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/icap"
	"repro/internal/rtl"
	"repro/internal/sim"
)

func main() {
	dev, err := device.Lookup("XC5VLX110T")
	if err != nil {
		log.Fatal(err)
	}
	var specs []sim.Spec
	for _, prm := range rtl.PaperPRMs() {
		row, _ := core.PaperTableVRow(prm, dev.Name)
		specs = append(specs, sim.Spec{Name: prm, Req: row.Req})
	}
	// Round-robin task switching: the worst case for reconfiguration churn.
	jobs := make([]sim.Job, 300)
	for i := range jobs {
		jobs[i] = sim.Job{ID: i, PRM: i % len(specs), Arrival: time.Duration(i) * 100 * time.Microsecond, Exec: 500 * time.Microsecond}
	}
	run := func(label string, plat sim.Platform) sim.Result {
		res, err := sim.Run(context.Background(), sim.Config{
			Platform:  plat,
			Policy:    sim.FCFSBestFit{},
			Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM},
		}, jobs, nil)
		if err != nil {
			log.Fatal(err)
		}
		makespan := time.Duration(res.MakespanNS)
		fmt.Printf("%-21s %d jobs in %v (%.1f jobs/s), %d reconfigs (%v, ICAP busy %.0f%%), mean wait %v\n",
			label, res.Completed, makespan, float64(res.Completed)/makespan.Seconds(), res.Reconfigs,
			time.Duration(res.ICAPBusyNS), res.ICAPBusy*100, time.Duration(res.MeanWaitNS))
		return res
	}

	dedicated, err := sim.BuildGroups(dev, specs, [][]int{{0}, {1}, {2}})
	if err != nil {
		log.Fatal(err)
	}
	dRes := run("dedicated PRRs:", dedicated)
	shared, err := sim.BuildShared(dev, specs, 1)
	if err != nil {
		log.Fatal(err)
	}
	run("one shared PRR:", shared)
	fRes := run("full reconfiguration:", sim.BuildFullReconfig(dev, specs))

	fmt.Printf("\nPR (dedicated) vs full reconfiguration: %.1fx makespan improvement\n\n",
		float64(fRes.MakespanNS)/float64(dRes.MakespanNS))

	// The §I pathology: oversized PRRs negate the PR benefit.
	a5, err := experiments.AblationOversize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(a5.String())
}
