// Command mtsim simulates preemptive hardware multitasking on a PR FPGA: the
// paper's three PRMs (optionally duplicated) time-multiplexing shared PRRs
// under a pluggable scheduler, every reconfiguration and context switch
// priced by the paper's cost models over one shared ICAP.
//
// Usage:
//
//	mtsim -device XC6VLX75T -policy reconfig -jobs 500 -seed 7
//	mtsim -coexplore -dup 4 -policies fcfs,reconfig -jobs 400 -json out.json
//
// Co-exploration scores every organization on the branch-and-bound engine's
// exact Pareto front against the job mix under each policy — replays fan
// out over -workers goroutines (0 = all cores) with a ranking that is
// byte-identical at any worker count — and prints greppable
// "coexplore-rank:" lines ranked by p99 waiting time. -json writes the
// machine-readable repro/simrun/v1 report.
//
// Observability: -trace-out writes spans as JSON lines, -summary writes the
// per-run metric summary, and -cpuprofile and -memprofile write pprof
// profiles of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/sim"
)

func main() {
	deviceName := flag.String("device", "XC6VLX75T", "target device")
	jobs := flag.Int("jobs", 300, "number of jobs in the mix")
	seed := flag.Uint64("seed", 1, "workload seed (same seed+flags = bit-identical run)")
	workload := flag.String("workload", "bursty", "arrival process: uniform, bursty, simultaneous")
	gapUS := flag.Int("gap", 100, "mean inter-arrival gap (microseconds)")
	execUS := flag.Int("exec", 500, "mean per-job execution time (microseconds)")
	burst := flag.Int("burst", 0, "bursty-process batch size (0 = default)")
	prioLevels := flag.Int("priolevels", 3, "priority levels drawn per job (<=1 = flat)")
	slots := flag.Int("slots", 2, "shared PRR slot count (single-platform mode)")
	policy := flag.String("policy", "fcfs", "scheduler for a single run: fcfs, priority, reconfig")
	policies := flag.String("policies", "", "comma-separated schedulers for -coexplore (default all)")
	coexplore := flag.Bool("coexplore", false, "score every Pareto-front organization against the mix")
	workers := flag.Int("workers", 0, "co-exploration replay goroutines (0 = all cores, 1 = sequential; ranking is identical either way)")
	dup := flag.Int("dup", 1, "duplicate the paper PRM set this many times")
	snapEvery := flag.Int("snapshot-every", 0, "print a progress snapshot every N completions (0 = off)")
	jsonOut := flag.String("json", "", "write the repro/simrun/v1 report to this file")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()

	sess, err := obsFlags.Start("mtsim")
	if err != nil {
		fatal(err)
	}
	ctx := sess.Context(context.Background())

	dev, err := device.Lookup(*deviceName)
	if err != nil {
		fatal(err)
	}
	if *dup < 1 {
		fatal(fmt.Errorf("-dup must be at least 1"))
	}
	var specs []sim.Spec
	for d := 0; d < *dup; d++ {
		for _, prm := range rtl.PaperPRMs() {
			row, ok := core.PaperTableVRow(prm, *deviceName)
			if !ok {
				fatal(fmt.Errorf("no paper requirements for %s on %s", prm, *deviceName))
			}
			name := prm
			if *dup > 1 {
				name = fmt.Sprintf("%s#%d", prm, d)
			}
			specs = append(specs, sim.Spec{Name: name, Req: row.Req})
		}
	}

	mix := sim.Mix{
		Jobs:           *jobs,
		Seed:           *seed,
		Arrival:        sim.Arrival(*workload),
		MeanGap:        time.Duration(*gapUS) * time.Microsecond,
		MeanExec:       time.Duration(*execUS) * time.Microsecond,
		Burst:          *burst,
		PriorityLevels: *prioLevels,
	}

	rep := &report.SimRun{
		Schema: report.SimRunSchema,
		Device: dev.Name,
		Seed:   *seed,
		Params: map[string]string{
			"jobs":     strconv.Itoa(*jobs),
			"workload": *workload,
			"dup":      strconv.Itoa(*dup),
			"policy":   *policy,
		},
	}
	if *coexplore {
		rep.Params["coexplore"] = "true"
		rep.Params["workers"] = strconv.Itoa(*workers)
		runCoExplore(ctx, dev, specs, mix, *policies, *workers, *snapEvery, rep)
	} else {
		runSingle(ctx, dev, specs, mix, *policy, *slots, *snapEvery, rep)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.Validate(); err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if err := sess.Finish(dev.Name, rep.Params); err != nil {
		fatal(err)
	}
}

// runSingle simulates the mix on one shared platform under one policy.
func runSingle(ctx context.Context, dev *device.Device, specs []sim.Spec, mix sim.Mix,
	policy string, slots, snapEvery int, rep *report.SimRun) {

	pol, err := sim.PolicyByName(policy)
	if err != nil {
		fatal(err)
	}
	plat, err := sim.BuildShared(dev, specs, slots)
	if err != nil {
		fatal(err)
	}
	jobs, err := mix.Generate(len(specs))
	if err != nil {
		fatal(err)
	}
	_, span := obs.StartSpan(ctx, "mtsim.run")
	res, err := sim.Run(ctx, sim.Config{Platform: plat, Policy: pol, SnapshotEvery: snapEvery},
		jobs, printSnapshot(snapEvery))
	span.SetAttr("jobs", res.Jobs).SetAttr("reconfigs", res.Reconfigs).
		SetAttr("makespan_ns", res.MakespanNS).End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy %s on %d slots: %s\n", res.Policy, slots, describe(res))
	for _, sl := range res.PerSlot {
		fmt.Printf("  %-6s busy %v, %d reconfigs, ICAP %v\n", sl.Name,
			time.Duration(sl.BusyNS).Round(time.Microsecond), sl.Reconfigs,
			time.Duration(sl.ICAPNS).Round(time.Microsecond))
	}
	rep.Runs = append(rep.Runs, toSummary(res, -1, nil, nil))
}

// runCoExplore scores the exact Pareto front against the mix under every
// requested policy and prints the per-policy p99 ranking.
func runCoExplore(ctx context.Context, dev *device.Device, specs []sim.Spec, mix sim.Mix,
	policyList string, workers, snapEvery int, rep *report.SimRun) {

	// Dominance pruning as costd sets it: the front is the same either way,
	// the walk just skips strictly dominated subtrees.
	cfg := sim.CoExploreConfig{Mix: mix, SnapshotEvery: snapEvery, Workers: workers,
		BB: dse.BBOptions{DominancePrune: true}}
	if policyList != "" {
		for _, name := range strings.Split(policyList, ",") {
			p, err := sim.PolicyByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			cfg.Policies = append(cfg.Policies, p)
		}
	}
	_, span := obs.StartSpan(ctx, "mtsim.coexplore")
	scores, front, stats, err := sim.CoExplore(ctx, dev, specs, cfg, nil, nil)
	span.SetAttr("front", len(front)).SetAttr("scores", len(scores)).
		SetAttr("partitions", stats.Partitions).End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("co-exploration: %d PRMs, front of %d organizations, %d partitions considered\n",
		len(specs), len(front), stats.Partitions)

	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	rank := 0
	for i, sc := range scores {
		if i == 0 || scores[i-1].Result.Policy != sc.Result.Policy {
			rank = 0
		}
		rank++
		fmt.Printf("coexplore-rank: policy=%s rank=%d org=%d p99_wait_ns=%d mean_wait_ns=%d reconfigs=%d icap_busy=%.3f groups=%s\n",
			sc.Result.Policy, rank, sc.Org, sc.Result.P99WaitNS, sc.Result.MeanWaitNS,
			sc.Result.Reconfigs, sc.Result.ICAPBusy, groupsLabel(names, sc.Groups))
		rep.Runs = append(rep.Runs, toSummary(sc.Result, sc.Org, names, sc.Groups))
	}
}

// printSnapshot returns a progress visitor when a cadence is set.
func printSnapshot(snapEvery int) func(sim.Snapshot) bool {
	if snapEvery <= 0 {
		return nil
	}
	return func(s sim.Snapshot) bool {
		fmt.Printf("t=%v completed=%d ready=%d running=%d reconfigs=%d icap_busy=%.3f\n",
			time.Duration(s.NowNS).Round(time.Microsecond), s.Completed, s.Ready,
			s.Running, s.Reconfigs, s.ICAPBusy)
		return true
	}
}

func describe(r sim.Result) string {
	return fmt.Sprintf("%d/%d jobs in %v, mean wait %v, p99 wait %v, %d reconfigs (%d preemptions), ICAP busy %.1f%%, util %.1f%%",
		r.Completed, r.Jobs, time.Duration(r.MakespanNS).Round(time.Microsecond),
		time.Duration(r.MeanWaitNS).Round(time.Microsecond),
		time.Duration(r.P99WaitNS).Round(time.Microsecond),
		r.Reconfigs, r.Preemptions, r.ICAPBusy*100, r.Utilization*100)
}

// toSummary maps an engine result onto the report schema. org < 0 marks a
// single-platform run (no organization identity).
func toSummary(r sim.Result, org int, names []string, groups [][]int) report.SimSummary {
	s := report.SimSummary{
		Policy:         r.Policy,
		Jobs:           int64(r.Jobs),
		Completed:      int64(r.Completed),
		MakespanNS:     r.MakespanNS,
		MeanWaitNS:     r.MeanWaitNS,
		P99WaitNS:      r.P99WaitNS,
		MeanResponseNS: r.MeanResponseNS,
		Reconfigs:      r.Reconfigs,
		Preemptions:    r.Preemptions,
		ICAPTransfers:  r.ICAPTransfers,
		ICAPBusy:       r.ICAPBusy,
		Utilization:    r.Utilization,
	}
	if org >= 0 {
		s.Org = org
		for _, members := range groups {
			g := make([]string, len(members))
			for i, idx := range members {
				g[i] = names[idx]
			}
			s.Groups = append(s.Groups, g)
		}
	}
	return s
}

func groupsLabel(names []string, groups [][]int) string {
	var b strings.Builder
	for g, members := range groups {
		if g > 0 {
			b.WriteByte('|')
		}
		for i, idx := range members {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(names[idx])
		}
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtsim:", err)
	os.Exit(1)
}
