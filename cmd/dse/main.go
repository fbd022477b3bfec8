// Command dse explores PR partitionings of the paper's PRMs on a device with
// the cost models, printing the exact Pareto front, the branch-and-bound
// statistics, and the model-versus-vendor-flow productivity comparison (the
// paper's Table VIII argument). `paper` (ablation A7) lists every design
// point of the paper PRMs instead.
//
// Usage:
//
//	dse -device XC6VLX75T
//	dse -n 12 -constrained
//
// The explorer is the prefix-sharing branch-and-bound engine, which streams
// the exact Pareto front while pruning subtrees whose partitions can never
// be placed (-prune=false disables the fit bound). -n explores synthetic
// PRMs instead of the paper's three (at most 25: Bell(26) overflows the
// partition counters). -constrained swaps in the deliberately tight fabric
// and its mixed DSP/BRAM workload where the bounds bite hardest. -dup k
// explores the duplicate-heavy workload with k distinct shapes, where the
// symmetry collapse (-symmetry off disables it) skips interchangeable
// partitions.
//
// The engine additionally memoizes group pricings by (signature-class
// composition, placed-region multiset) — the orbit-level collapse that makes
// duplicate-heavy walks interactive. Each walk (the root walk and every
// subtree worker) keeps its own memo, so the memo line's entries count what
// the walks stored: one per miss. -memo off disables it for A/B measurement
// (the front is bit-identical either way).
//
// Observability: -metrics-addr serves Prometheus text at /metrics (plus
// expvar, and pprof with -pprof), -trace-out writes nested spans as JSON
// lines, -summary writes the machine-readable per-run metric summary, and
// -hold keeps the metrics server up after the run for scraping. -cpuprofile
// and -memprofile write pprof profiles covering the exploration itself,
// for feeding `go tool pprof` without a live server.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
	"repro/internal/obscli"
	"repro/internal/rtl"
	"repro/internal/synth"
)

func main() {
	deviceName := flag.String("device", "XC6VLX75T", "target device")
	prune := flag.Bool("prune", true, "enable the monotone fit bound")
	constrained := flag.Bool("constrained", false, "use the tight two-run fabric and its DSP/BRAM workload (requires -n)")
	nSynthetic := flag.Int("n", 0, "explore n synthetic PRMs instead of the paper's three (stress mode)")
	dupShapes := flag.Int("dup", 0, "with -n: use the duplicate-heavy workload with this many distinct shapes (symmetry stress mode)")
	symmetry := flag.String("symmetry", "auto", "interchangeable-PRM collapse: auto or off")
	memo := flag.String("memo", "auto", "composition-keyed group-pricing memo: auto or off")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the exploration) to this file")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	sess, err := obsFlags.Start("dse")
	if err != nil {
		fatal(err)
	}

	var dev *device.Device
	if *constrained {
		if *nSynthetic <= 0 {
			fatal(fmt.Errorf("-constrained needs -n (the paper PRMs are not defined for the synthetic fabric)"))
		}
		dev = dse.ConstrainedDevice()
	} else {
		dev, err = device.Lookup(*deviceName)
		if err != nil {
			fatal(err)
		}
	}
	var prms []dse.PRM
	switch {
	case *constrained:
		prms = dse.ConstrainedPRMs(*nSynthetic)
	case *dupShapes > 0:
		if *nSynthetic <= 0 {
			fatal(fmt.Errorf("-dup needs -n (it shapes the synthetic workload)"))
		}
		prms = dse.DuplicatePRMs(*nSynthetic, *dupShapes)
	case *nSynthetic > 0:
		prms = dse.SyntheticPRMs(*nSynthetic)
	default:
		for _, prm := range rtl.PaperPRMs() {
			row, ok := core.PaperTableVRow(prm, *deviceName)
			if !ok {
				fatal(fmt.Errorf("no paper requirements for %s on %s", prm, *deviceName))
			}
			prms = append(prms, dse.PRM{Name: prm, Req: row.Req})
		}
	}

	opts := dse.BBOptions{DominancePrune: true, DisableFitPrune: !*prune}
	switch *symmetry {
	case "auto":
	case "off":
		opts.Symmetry = dse.SymmetryOff
	default:
		fatal(fmt.Errorf("unknown -symmetry %q (want auto or off)", *symmetry))
	}
	switch *memo {
	case "auto":
	case "off":
		opts.Memo = dse.MemoOff
	default:
		fatal(fmt.Errorf("unknown -memo %q (want auto or off)", *memo))
	}

	e := &dse.Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
	start := time.Now()
	front, stats, err := e.ExploreParetoBB(sess.Context(context.Background()), prms, opts)
	if err != nil {
		fatal(err)
	}
	modelTime := time.Since(start)

	fmt.Println("Pareto front (area / worst reconfiguration / fragmentation):")
	for _, p := range front {
		fmt.Printf("  %s: %d tiles, %v worst reconfig, %.1f%% min RU\n",
			dse.Describe(prms, p), p.TotalTiles, p.WorstReconfig.Round(time.Microsecond), p.MinRU)
	}

	fmt.Printf("\nbranch-and-bound: %d partitions, %d evaluated (%.1f%%), %d fit-pruned, %d dominance-pruned\n",
		stats.Partitions, stats.Evaluated,
		100*float64(stats.Evaluated)/float64(stats.Partitions),
		stats.PrunedFit, stats.PrunedDominated)
	fmt.Printf("  %d group pricings over %d subtree jobs (split depth %d); front %d, resident peak %d points\n",
		stats.GroupPricings, stats.Subtrees, stats.SplitDepth,
		stats.FrontSize, stats.MaxResident)
	if stats.CollapsedSymmetry > 0 {
		fmt.Printf("  symmetry: %d signature classes, %d partitions collapsed (%.1f%%)\n",
			stats.Classes, stats.CollapsedSymmetry,
			100*float64(stats.CollapsedSymmetry)/float64(stats.Partitions))
	}
	if lookups := stats.MemoHits + stats.MemoMisses; lookups > 0 {
		fmt.Printf("  memo: %d hits, %d misses (%.1f%% hit rate), %d orbit entries\n",
			stats.MemoHits, stats.MemoMisses,
			100*float64(stats.MemoHits)/float64(lookups), stats.MemoEntries)
	}

	var flowPerPoint time.Duration
	for _, p := range prms {
		flowPerPoint += dse.ISE124.FullFlow(p.Req.LUTFFPairs*2, synth.Report{LUTFFPairs: p.Req.LUTFFPairs})
	}
	// Millions of points times hours of flow overflows a Duration's int64
	// nanoseconds; compute the total in float seconds and saturate the
	// printable Duration.
	evaluated := int(stats.Evaluated)
	flowSecs := flowPerPoint.Seconds() * float64(evaluated)
	flowTime := time.Duration(math.MaxInt64)
	if flowSecs < float64(math.MaxInt64)/float64(time.Second) {
		flowTime = time.Duration(flowSecs * float64(time.Second))
	}
	fmt.Printf("\n%v\n", dse.Productivity{
		Points: evaluated, ModelTime: modelTime, FlowTime: flowTime,
		SpeedupFactor: flowSecs / modelTime.Seconds(),
	})

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if err := sess.Finish(dev.Name, map[string]string{
		"n": strconv.Itoa(len(prms)),
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dse:", err)
	os.Exit(1)
}
