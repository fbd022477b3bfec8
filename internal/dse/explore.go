package dse

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
	"repro/internal/icap"
)

// PRM names one module to place in the exploration.
type PRM struct {
	Name string
	Req  core.Requirements
}

// DesignPoint is one PR partitioning: a grouping of PRMs onto shared PRRs,
// evaluated entirely with the paper's cost models.
type DesignPoint struct {
	// Groups lists PRM indexes per PRR (a set partition of the PRMs).
	Groups [][]int
	// Feasible is false when some group's merged PRR has no window or the
	// groups cannot be placed disjointly.
	Feasible bool
	// Infeasibility carries the reason when Feasible is false.
	Infeasibility string

	// TotalTiles is the summed PRR_size over groups (area cost).
	TotalTiles int
	// MaxBitstreamBytes is the largest partial bitstream any reconfiguration
	// moves (latency cost).
	MaxBitstreamBytes int
	// TotalBitstreamBytes sums each group's bitstream (storage cost).
	TotalBitstreamBytes int
	// WorstReconfig is the estimator's time for the largest bitstream.
	WorstReconfig time.Duration
	// MinRU is the worst per-PRM CLB utilization across shared PRRs
	// (fragmentation cost; 0-100).
	MinRU float64
}

// Explorer evaluates PR partitionings on one device.
type Explorer struct {
	Device    *device.Device
	Estimator icap.Estimator
}

// Evaluate prices one partitioning with the cost models. Groups are priced
// in order; each group's PRR must avoid the regions placed for the groups
// before it.
func (e *Explorer) Evaluate(prms []PRM, groups [][]int) DesignPoint {
	dp := DesignPoint{Groups: groups, Feasible: true, MinRU: 100}
	bit := core.NewBitstreamModel(e.Device.Params)
	placed := make([]floorplan.Region, 0, len(groups))
	var sc priceScratch
	for _, g := range groups {
		ev := e.priceGroup(prms, g, placed, bit, &sc)
		if !ev.feasible {
			dp.Feasible = false
			dp.Infeasibility = ev.errMsg
			return dp
		}
		placed = append(placed, ev.region)
		dp.TotalTiles += ev.tiles
		dp.TotalBitstreamBytes += ev.bytes
		if ev.bytes > dp.MaxBitstreamBytes {
			dp.MaxBitstreamBytes = ev.bytes
		}
		if ev.minCLB < dp.MinRU {
			dp.MinRU = ev.minCLB
		}
	}
	dp.WorstReconfig = e.Estimator.Estimate(dp.MaxBitstreamBytes)
	return dp
}

// priceScratch holds the buffers priceGroup prices into. A walk keeps one
// for its whole life, so once the slices have grown a feasible pricing
// allocates nothing; only an infeasible one builds its error text.
type priceScratch struct {
	reqs   []core.Requirements
	shared core.SharedResult
}

// priceGroup sizes one shared PRR for the PRM group against the already-
// placed regions and reduces the model outputs to what a design point needs.
func (e *Explorer) priceGroup(prms []PRM, g []int, placed []floorplan.Region, bit core.BitstreamModel, sc *priceScratch) groupEval {
	sc.reqs = sc.reqs[:0]
	for _, idx := range g {
		sc.reqs = append(sc.reqs, prms[idx].Req)
	}
	m := core.PRRModel{Device: e.Device, Avoid: placed}
	if err := m.EstimateSharedInto(sc.reqs, &sc.shared); err != nil {
		return groupEval{errMsg: err.Error()}
	}
	shared := &sc.shared
	ev := groupEval{
		feasible: true,
		region:   shared.Org.Region,
		tiles:    shared.Org.Size(),
		bytes:    bit.SizeBytes(shared.Org),
		minCLB:   100,
	}
	for _, ru := range shared.SharedRU {
		if ru.CLB < ev.minCLB {
			ev.minCLB = ru.CLB
		}
	}
	return ev
}

// ExploreAll enumerates every set partition of the PRMs (Bell(n) points; n
// is small in PR floorplanning practice) and evaluates each sequentially.
// It is the brute-force oracle the branch-and-bound engine is tested against
// (ExploreParetoBB returns exactly Pareto(ExploreAll(prms))) and the full
// design-point listing of ablation A7; production callers use ExploreBB.
func (e *Explorer) ExploreAll(prms []PRM) []DesignPoint {
	var points []DesignPoint
	forEachPartitionRGS(len(prms), func(_ int, rgs []int) bool {
		points = append(points, e.Evaluate(prms, decodeGroups(rgs)))
		return true
	})
	return points
}

// forEachPartition enumerates set partitions of {0..n-1} via restricted
// growth strings. The groups slice is only valid during the visit.
func forEachPartition(n int, visit func([][]int)) {
	forEachPartitionRGS(n, func(_ int, rgs []int) bool {
		visit(decodeGroups(rgs))
		return true
	})
}

// forEachPartitionRGS enumerates the restricted growth strings of length n
// in lexicographic order, calling visit with each partition's enumeration
// index and its RGS (valid only during the visit). Returning false from
// visit stops the enumeration.
func forEachPartitionRGS(n int, visit func(index int, rgs []int) bool) {
	if n == 0 {
		return
	}
	rgs := make([]int, n)
	index := 0
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == n {
			ok := visit(index, rgs)
			index++
			return ok
		}
		for g := 0; g <= maxUsed+1; g++ {
			rgs[i] = g
			next := maxUsed
			if g > maxUsed {
				next = g
			}
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	rec(0, -1)
}

// decodeGroups converts a restricted growth string into freshly allocated
// groups, ordered by first appearance with members ascending. All groups
// share one backing array sized up front, so the decode costs three
// allocations regardless of the group count.
func decodeGroups(rgs []int) [][]int {
	k := 0
	for _, g := range rgs {
		if g+1 > k {
			k = g + 1
		}
	}
	sizes := make([]int, k)
	for _, g := range rgs {
		sizes[g]++
	}
	groups := make([][]int, k)
	backing := make([]int, len(rgs))
	off := 0
	for g, sz := range sizes {
		groups[g] = backing[off : off : off+sz]
		off += sz
	}
	for idx, g := range rgs {
		groups[g] = append(groups[g], idx)
	}
	return groups
}

// Pareto returns the feasible points not dominated on (TotalTiles,
// WorstReconfig, -MinRU): smaller area, faster worst-case reconfiguration
// and lower fragmentation. The front is sorted by TotalTiles with
// deterministic tie-breaks (WorstReconfig ascending, then MinRU descending,
// then input order), so output order is stable across runs.
//
// The filter is incremental O(n·front) rather than the all-pairs O(n²):
// after sorting by the dominance objectives, a point can only be dominated
// by a point already on the front, never by a later one.
func Pareto(points []DesignPoint) []DesignPoint {
	feas := make([]DesignPoint, 0, len(points))
	for _, p := range points {
		if p.Feasible {
			feas = append(feas, p)
		}
	}
	sort.SliceStable(feas, func(i, j int) bool {
		a, b := feas[i], feas[j]
		if a.TotalTiles != b.TotalTiles {
			return a.TotalTiles < b.TotalTiles
		}
		if a.WorstReconfig != b.WorstReconfig {
			return a.WorstReconfig < b.WorstReconfig
		}
		return a.MinRU > b.MinRU
	})
	var front []DesignPoint
	for _, p := range feas {
		dominated := false
		for i := range front {
			q := &front[i]
			if q.TotalTiles <= p.TotalTiles && q.WorstReconfig <= p.WorstReconfig && q.MinRU >= p.MinRU &&
				(q.TotalTiles < p.TotalTiles || q.WorstReconfig < p.WorstReconfig || q.MinRU > p.MinRU) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}

// Describe renders a design point's grouping like "{FIR,MIPS}{SDRAM}".
func Describe(prms []PRM, dp DesignPoint) string {
	var b strings.Builder
	for _, g := range dp.Groups {
		b.WriteByte('{')
		for i, idx := range g {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(prms[idx].Name)
		}
		b.WriteByte('}')
	}
	if !dp.Feasible {
		b.WriteString(" (infeasible)")
	}
	return b.String()
}

// Productivity compares cost-model exploration against the vendor flow: the
// measured model time for evaluating all points versus the tool-time model's
// estimate of implementing each PRM once per design point.
type Productivity struct {
	Points    int
	ModelTime time.Duration // measured
	// FlowSeconds is estimated via ToolTimeModel. It is float seconds
	// because millions of points times hours of flow overflow a Duration's
	// int64 nanoseconds (about 292 years).
	FlowSeconds   float64
	SpeedupFactor float64
}

// String renders the productivity summary, the flow total in hours.
func (p Productivity) String() string {
	return fmt.Sprintf("%d design points: cost models %v vs full flow ~%.1fh (%.0fx)",
		p.Points, p.ModelTime, p.FlowSeconds/3600, p.SpeedupFactor)
}
