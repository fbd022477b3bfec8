package dse

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/icap"
	"repro/internal/synth"
)

func paperPRMs(t *testing.T, devName string) []PRM {
	t.Helper()
	var prms []PRM
	for _, name := range []string{"FIR", "MIPS", "SDRAM"} {
		row, ok := core.PaperTableVRow(name, devName)
		if !ok {
			t.Fatalf("missing Table V row %s/%s", name, devName)
		}
		prms = append(prms, PRM{Name: name, Req: row.Req})
	}
	return prms
}

func explorer(t *testing.T, devName string) *Explorer {
	t.Helper()
	dev, err := device.Lookup(devName)
	if err != nil {
		t.Fatal(err)
	}
	return &Explorer{Device: dev, Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
}

// randomPRMs builds a reproducible random PRM set: mostly small modules
// that fit the catalog parts, with occasional DSP/BRAM demands and the odd
// oversized module to exercise the infeasibility paths.
func randomPRMs(rng *rand.Rand, n int) []PRM {
	prms := make([]PRM, n)
	for i := range prms {
		luts := 100 + rng.Intn(1500)
		ffs := 100 + rng.Intn(1500)
		pairs := luts
		if ffs > pairs {
			pairs = ffs
		}
		pairs += rng.Intn(300)
		req := core.Requirements{LUTFFPairs: pairs, LUTs: luts, FFs: ffs}
		if rng.Intn(3) == 0 {
			req.DSPs = 1 + rng.Intn(8)
		}
		if rng.Intn(3) == 0 {
			req.BRAMs = 1 + rng.Intn(4)
		}
		if rng.Intn(8) == 0 { // too big for most windows
			req.LUTFFPairs *= 40
			req.LUTs *= 40
			req.FFs *= 40
		}
		prms[i] = PRM{Name: fmt.Sprintf("M%d", i), Req: req}
	}
	return prms
}

// TestPartitionEnumeration: Bell numbers for small n.
func TestPartitionEnumeration(t *testing.T) {
	want := map[int]int{1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
	for n, bell := range want {
		count := 0
		forEachPartition(n, func(groups [][]int) {
			count++
			total := 0
			for _, g := range groups {
				total += len(g)
			}
			if total != n {
				t.Fatalf("partition of %d covers %d elements", n, total)
			}
		})
		if count != bell {
			t.Errorf("partitions of %d = %d, want Bell(%d) = %d", n, count, n, bell)
		}
	}
}

// TestExploreAllPaperPRMs: all five partitionings of {FIR, MIPS, SDRAM} are
// evaluated on the LX75T; separate PRRs dominate total-tiles over the fully
// shared PRR (sharing wastes SDRAM's slot on MIPS-sized resources).
func TestExploreAllPaperPRMs(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := paperPRMs(t, "XC6VLX75T")
	points := e.ExploreAll(prms)
	if len(points) != 5 {
		t.Fatalf("points = %d, want Bell(3) = 5", len(points))
	}
	var separate, shared *DesignPoint
	for i := range points {
		switch len(points[i].Groups) {
		case 3:
			separate = &points[i]
		case 1:
			shared = &points[i]
		}
	}
	if separate == nil || shared == nil {
		t.Fatal("missing fully-separate or fully-shared point")
	}
	if !separate.Feasible {
		t.Fatalf("separate PRRs infeasible: %s", separate.Infeasibility)
	}
	if shared.Feasible {
		// One merged PRR holds MIPS-scale resources; it is larger than the
		// sum of right-sized... no: merged takes the max per resource, so a
		// single shared PRR is SMALLER in total tiles but has terrible RU
		// for SDRAM and a larger per-switch bitstream than SDRAM's own.
		if shared.TotalTiles >= separate.TotalTiles {
			t.Errorf("single shared PRR (%d tiles) should use fewer tiles than three PRRs (%d)",
				shared.TotalTiles, separate.TotalTiles)
		}
		if shared.MinRU >= separate.MinRU {
			t.Errorf("sharing should worsen min RU: %.1f%% vs %.1f%%", shared.MinRU, separate.MinRU)
		}
	}
	if separate.MaxBitstreamBytes <= 0 || separate.WorstReconfig <= 0 {
		t.Errorf("degenerate separate point: %+v", separate)
	}
}

// TestPareto: the front is non-empty, contains no dominated point, and every
// front member is feasible.
func TestPareto(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := paperPRMs(t, "XC6VLX75T")
	points := e.ExploreAll(prms)
	front := Pareto(points)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for _, p := range front {
		if !p.Feasible {
			t.Errorf("infeasible point on the front: %s", Describe(prms, p))
		}
		for _, q := range front {
			if q.TotalTiles < p.TotalTiles && q.WorstReconfig < p.WorstReconfig && q.MinRU > p.MinRU {
				t.Errorf("front point %s dominated by %s", Describe(prms, p), Describe(prms, q))
			}
		}
	}
}

// TestParetoDeterministicTies: mutually non-dominated points that tie on
// TotalTiles come back in a fixed order (WorstReconfig ascending, then MinRU
// descending) no matter how the input is permuted.
func TestParetoDeterministicTies(t *testing.T) {
	pts := []DesignPoint{
		{Groups: [][]int{{0}}, Feasible: true, TotalTiles: 10, WorstReconfig: 6 * time.Millisecond, MinRU: 60},
		{Groups: [][]int{{1}}, Feasible: true, TotalTiles: 10, WorstReconfig: 4 * time.Millisecond, MinRU: 40},
		{Groups: [][]int{{2}}, Feasible: true, TotalTiles: 10, WorstReconfig: 5 * time.Millisecond, MinRU: 50},
		{Groups: [][]int{{3}}, Feasible: true, TotalTiles: 12, WorstReconfig: 3 * time.Millisecond, MinRU: 30},
	}
	wantReconfig := []time.Duration{4 * time.Millisecond, 5 * time.Millisecond, 6 * time.Millisecond, 3 * time.Millisecond}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	for _, perm := range perms {
		in := make([]DesignPoint, len(perm))
		for i, j := range perm {
			in[i] = pts[j]
		}
		front := Pareto(in)
		if len(front) != len(wantReconfig) {
			t.Fatalf("perm %v: front size %d, want %d", perm, len(front), len(wantReconfig))
		}
		for i, want := range wantReconfig {
			if front[i].WorstReconfig != want {
				t.Errorf("perm %v front[%d].WorstReconfig = %v, want %v",
					perm, i, front[i].WorstReconfig, want)
			}
		}
	}
	// Exactly equal points neither dominate each other nor get deduplicated.
	dup := []DesignPoint{pts[0], pts[0]}
	if front := Pareto(dup); len(front) != 2 {
		t.Errorf("duplicate points: front size %d, want 2", len(front))
	}
}

// TestInfeasiblePartitions: the LX110T's single DSP column spans 8 rows, so
// FIR (5 rows of it) and MIPS (1 row) can stack — but two FIR-sized groups
// (5 rows each) cannot, and Evaluate must report that.
func TestInfeasiblePartitions(t *testing.T) {
	e := explorer(t, "XC5VLX110T")
	prms := paperPRMs(t, "XC5VLX110T")
	// {FIR} {MIPS} {SDRAM} stack along the DSP column: feasible.
	dp := e.Evaluate(prms, [][]int{{0}, {1}, {2}})
	if !dp.Feasible {
		t.Errorf("separate PRRs should stack on the 8-row DSP column: %s", dp.Infeasibility)
	}
	// Two FIR instances need 10 rows of the single DSP column: infeasible.
	two := []PRM{prms[0], {Name: "FIR2", Req: prms[0].Req}}
	dp = e.Evaluate(two, [][]int{{0}, {1}})
	if dp.Feasible {
		t.Error("two 5-row FIR PRRs should not fit the 8-row DSP column")
	}
	// Sharing one PRR resolves the conflict.
	dp = e.Evaluate(two, [][]int{{0, 1}})
	if !dp.Feasible {
		t.Errorf("two FIRs sharing one PRR should be feasible: %s", dp.Infeasibility)
	}
}

// TestDescribe covers the label rendering.
func TestDescribe(t *testing.T) {
	prms := []PRM{{Name: "A"}, {Name: "B"}}
	dp := DesignPoint{Groups: [][]int{{0, 1}}, Feasible: false}
	if got := Describe(prms, dp); got != "{A,B} (infeasible)" {
		t.Errorf("describe = %q", got)
	}
}

// TestToolTimeCalibration: the ISE 12.4 model lands inside the paper's Table
// VIII envelope (roughly 3-5 minutes synthesis, 3-6 minutes implementation)
// for PRM-scale designs, and the model-vs-flow speedup exceeds 1000x.
func TestToolTimeCalibration(t *testing.T) {
	for _, tc := range []struct {
		cells int
		pairs int
	}{
		{1800, 1300}, // FIR scale
		{4400, 2617}, // MIPS scale
		{450, 332},   // SDRAM scale
	} {
		syn := ISE124.Synthesis(tc.cells)
		if syn < 3*time.Minute || syn > 5*time.Minute+30*time.Second {
			t.Errorf("synthesis(%d cells) = %v, outside Table VIII envelope", tc.cells, syn)
		}
		impl := ISE124.Implementation(synth.Report{LUTFFPairs: tc.pairs})
		if impl < 2*time.Minute+30*time.Second || impl > 6*time.Minute+30*time.Second {
			t.Errorf("implementation(%d pairs) = %v, outside Table VIII envelope", tc.pairs, impl)
		}
	}
}

// TestProductivityString: the flow total prints in hours, also past the
// 292 years at which a Duration's int64 nanoseconds overflow. 13.6M design
// points of 20 PRMs at 5.5 tool minutes each is 2.5e7 hours.
func TestProductivityString(t *testing.T) {
	p := Productivity{Points: 13_600_000, ModelTime: 7 * time.Second,
		FlowSeconds: 13_600_000 * 20 * 330, SpeedupFactor: 1.28e10}
	if years := p.FlowSeconds / (365.25 * 24 * 3600); years < 292 {
		t.Fatalf("flow total %.0f years does not pass a Duration's range", years)
	}
	const want = "13600000 design points: cost models 7s vs full flow ~24933333.3h (12800000000x)"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestProductivityMeasurement: evaluating every partition with the models is
// at least three orders of magnitude faster than the estimated vendor flow.
func TestProductivityMeasurement(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := paperPRMs(t, "XC6VLX75T")

	start := time.Now()
	points := e.ExploreAll(prms)
	modelTime := time.Since(start)

	var flowTime time.Duration
	for range points {
		for _, p := range prms {
			flowTime += ISE124.FullFlow(p.Req.LUTFFPairs*2, synth.Report{LUTFFPairs: p.Req.LUTFFPairs})
		}
	}
	speedup := float64(flowTime) / float64(modelTime)
	if speedup < 1000 {
		t.Errorf("model speedup = %.0fx, want >= 1000x (model %v, flow %v)",
			speedup, modelTime, flowTime)
	}
	t.Logf("productivity: %v", Productivity{
		Points: len(points), ModelTime: modelTime, FlowSeconds: flowTime.Seconds(), SpeedupFactor: speedup,
	})
}
