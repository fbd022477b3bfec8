package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// ReadyView is one queued job as the policy sees it.
type ReadyView struct {
	Job       int
	PRM       int
	Priority  int
	Arrival   time.Duration
	Remaining time.Duration
	// Restore is true when starting the job replays a saved context
	// (restore transfer) instead of a cold load.
	Restore bool
	// job indexes the engine's job list.
	job int
}

// SlotView is one slot as the policy sees it.
type SlotView struct {
	State SlotState
	// Loaded is the resident PRM index, -1 when scrubbed or mid-transfer.
	Loaded int
	// Priority is the running job's (SlotRunning only).
	Priority int
}

// View is the read-only scheduling state handed to a Policy. Ready is in
// priority order: priority descending, then arrival, then job ID, with a
// preempted job re-queued at its place in that order. Ready and Slots alias
// the engine's ready queue and slot table, so policies must neither modify
// nor retain them.
type View struct {
	Now   time.Duration
	Ready []ReadyView
	Slots []SlotView
	en    *engine
}

// Compat returns the slots that can host the PRM class.
func (v *View) Compat(prm int) []int { return v.en.cfg.Platform.PRMs[prm].Compat }

// SlotSet numbers the PRM class's Compat list: classes with equal lists
// share a slot set. Whether a job can take an idle slot, or which running
// tasks it could evict, depends on its slot set, not on its class.
func (v *View) SlotSet(prm int) int { return v.en.setOf[prm] }

// SetHeads returns, per slot set, the Ready index of the set's first job in
// priority order, or -1 when none of its jobs is queued. It aliases engine
// state: read only, valid during the Decide call.
func (v *View) SetHeads() []int { return v.en.setHead }

// Tiles returns the slot's PRR size (its area cost).
func (v *View) Tiles(slot int) int { return v.en.cfg.Platform.PRRs[slot].Tiles }

// LoadTime is the ICAP occupancy of a cold module load into the slot.
func (v *View) LoadTime(slot int) time.Duration { return v.en.loadDur[slot] }

// SaveTime is the ICAP occupancy of a context save out of the slot.
func (v *View) SaveTime(slot int) time.Duration { return v.en.saveDur[slot] }

// RestoreTime is the ICAP occupancy of a context restore into the slot.
func (v *View) RestoreTime(slot int) time.Duration { return v.en.restoreDur[slot] }

// Action is one scheduling decision: start Ready[Ready] on Slot, preempting
// the running task when Preempt is set. The engine validates every action;
// an invalid one ends the dispatch round.
type Action struct {
	Ready   int
	Slot    int
	Preempt bool
}

// Policy decides which ready job starts next. Decide is called repeatedly
// after every event until it returns false (pass) or proposes an invalid
// action. Policies must be deterministic pure functions of the View.
type Policy interface {
	Name() string
	Decide(v *View) (Action, bool)
}

func (en *engine) view(now time.Duration) *View {
	// The engine-owned View is set up in reset over the live slot table;
	// each dispatch iteration only points it at the clock and the queue, so
	// the hot loop never allocates. Policies must not retain it.
	en.viewBuf.Now, en.viewBuf.Ready = now, en.ready[en.head:]
	return &en.viewBuf
}

// startFloor is the priority at or below which no ready job can start: a
// job starts on an idle slot or by evicting a strictly lower-priority
// running task, and a loading slot takes neither. With a slot idle every
// level may start; otherwise a job must outrank the weakest running task.
func startFloor(v *View) int {
	floor := math.MaxInt
	for _, sv := range v.Slots {
		switch sv.State {
		case SlotIdle:
			return math.MinInt
		case SlotRunning:
			floor = min(floor, sv.Priority)
		}
	}
	return floor
}

// FCFSBestFit serves the earliest-arrived waiting job only (head-of-line
// blocking is the policy's documented cost) and starts it on the smallest
// idle compatible PRR, preferring a warm slot among equal sizes. It never
// preempts.
type FCFSBestFit struct{}

// Name implements Policy.
func (FCFSBestFit) Name() string { return "fcfs" }

// Decide implements Policy. The head is engine state (see engine.fcfs),
// kept as jobs enter and leave the queue. FCFSBestFit never preempts, so
// with no slot idle it passes without looking at the queue.
func (FCFSBestFit) Decide(v *View) (Action, bool) {
	if !slices.ContainsFunc(v.Slots, func(sv SlotView) bool { return sv.State == SlotIdle }) {
		return Action{}, false
	}
	head := v.en.fcfs()
	if head < 0 {
		return Action{}, false
	}
	r := v.Ready[head]
	best, bestTiles, bestWarm := -1, 0, false
	for _, s := range v.Compat(r.PRM) {
		if v.Slots[s].State != SlotIdle {
			continue
		}
		warm := v.Slots[s].Loaded == r.PRM && !r.Restore
		tiles := v.Tiles(s)
		if best < 0 || tiles < bestTiles || (tiles == bestTiles && warm && !bestWarm) {
			best, bestTiles, bestWarm = s, tiles, warm
		}
	}
	if best < 0 {
		return Action{}, false
	}
	return Action{Ready: head, Slot: best}, true
}

// PreemptPriority serves the highest-priority waiting job first (FIFO
// within a level) and evicts a strictly lower-priority running task when no
// compatible slot is idle — task-based preemptive scheduling in the spirit
// of Rodriguez-Canal et al. 2023, with the engine charging the context
// save/restore transfers every eviction implies.
type PreemptPriority struct{}

// Name implements Policy.
func (PreemptPriority) Name() string { return "priority" }

// Decide implements Policy. Whether a job can start depends only on its
// slot set and priority: it needs an idle compatible slot or a strictly
// lower-priority compatible victim. A set's head outranks or ties every
// other job of its set, so the first job in Ready that can start is the
// earliest set head that can; Decide tests the heads, not the queue.
func (PreemptPriority) Decide(v *View) (Action, bool) {
	floor := startFloor(v)
	best := Action{Ready: -1}
	for _, ri := range v.SetHeads() {
		if ri < 0 || best.Ready >= 0 && ri > best.Ready || v.Ready[ri].Priority <= floor {
			continue
		}
		if act, ok := priorityStart(v, ri); ok {
			best = act
		}
	}
	if best.Ready < 0 {
		return Action{}, false
	}
	return best, true
}

// priorityStart is PreemptPriority's move for Ready[ri]: an idle compatible
// slot (warm, then smallest, then lowest index), else the weakest strictly
// lower-priority compatible victim.
func priorityStart(v *View, ri int) (Action, bool) {
	r := &v.Ready[ri]
	best, bestTiles, bestWarm := -1, 0, false
	for _, s := range v.Compat(r.PRM) {
		if v.Slots[s].State != SlotIdle {
			continue
		}
		warm := v.Slots[s].Loaded == r.PRM && !r.Restore
		tiles := v.Tiles(s)
		if best < 0 || (warm && !bestWarm) || (warm == bestWarm && tiles < bestTiles) {
			best, bestTiles, bestWarm = s, tiles, warm
		}
	}
	if best >= 0 {
		return Action{Ready: ri, Slot: best}, true
	}
	victim, victimPrio := -1, 0
	for _, s := range v.Compat(r.PRM) {
		sv := v.Slots[s]
		if sv.State != SlotRunning || sv.Priority >= r.Priority {
			continue
		}
		if victim < 0 || sv.Priority < victimPrio {
			victim, victimPrio = s, sv.Priority
		}
	}
	if victim >= 0 {
		return Action{Ready: ri, Slot: victim, Preempt: true}, true
	}
	return Action{}, false
}

// ReconfigAware is priority scheduling with the bitstream bill attached:
// candidate slots are scored by the reconfiguration time starting the job
// there would occupy on the ICAP (zero for a warm idle slot; load or
// restore for a cold one; capture + save + load for an eviction), the
// cheapest slot wins, and a victim is only evicted when the incoming job's
// remaining work exceeds the reconfiguration it triggers.
type ReconfigAware struct{}

// Name implements Policy.
func (ReconfigAware) Name() string { return "reconfig" }

// Decide implements Policy. As under PreemptPriority, an idle compatible
// slot takes any job of a slot set, so the set's head starts if any of its
// jobs does. The eviction test also reads Remaining and Restore, so when a
// head can only evict, and every eviction costs more than it is worth,
// Decide walks on through the set's own jobs while a lower-priority
// compatible victim exists.
func (ReconfigAware) Decide(v *View) (Action, bool) {
	floor := startFloor(v)
	best := Action{Ready: -1}
	for set, ri := range v.SetHeads() {
		for ri >= 0 && (best.Ready < 0 || ri < best.Ready) && v.Ready[ri].Priority > floor {
			act, ok, victims := reconfigStart(v, ri)
			if ok {
				best = act
				break
			}
			if !victims {
				break // the set's later jobs rank no higher: none can evict
			}
			ri = nextInSet(v, set, ri)
		}
	}
	if best.Ready < 0 {
		return Action{}, false
	}
	return best, true
}

// nextInSet is the Ready index of the first job after Ready[ri] in the slot
// set, or -1 when there is none.
func nextInSet(v *View, set, ri int) int {
	for ri++; ri < len(v.Ready); ri++ {
		if v.SlotSet(v.Ready[ri].PRM) == set {
			return ri
		}
	}
	return -1
}

// reconfigStart is ReconfigAware's move for Ready[ri], the compatible slot
// whose start costs least. victims reports whether a compatible slot runs a
// lower-priority task, whether or not evicting it pays.
func reconfigStart(v *View, ri int) (act Action, ok, victims bool) {
	r := &v.Ready[ri]
	startCost := func(s int) time.Duration {
		if r.Restore {
			return v.RestoreTime(s)
		}
		return v.LoadTime(s)
	}
	best, bestCost, bestPre := -1, time.Duration(0), false
	for _, s := range v.Compat(r.PRM) {
		sv := v.Slots[s]
		var cost time.Duration
		pre := false
		switch {
		case sv.State == SlotIdle && sv.Loaded == r.PRM && !r.Restore:
			cost = 0
		case sv.State == SlotIdle:
			cost = startCost(s)
		case sv.State == SlotRunning && sv.Priority < r.Priority:
			victims = true
			cost = DefaultCaptureOverhead + v.SaveTime(s) + startCost(s)
			pre = true
			if r.Remaining <= cost {
				continue // the eviction costs more than the job is worth
			}
		default:
			continue
		}
		if best < 0 || cost < bestCost || (cost == bestCost && bestPre && !pre) {
			best, bestCost, bestPre = s, cost, pre
		}
	}
	if best < 0 {
		return Action{}, false, victims
	}
	return Action{Ready: ri, Slot: best, Preempt: bestPre}, true, victims
}

// PolicyNames lists the built-in policies in presentation order.
func PolicyNames() []string { return []string{"fcfs", "priority", "reconfig"} }

// PolicyByName resolves a built-in policy; the empty name means fcfs.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "fcfs":
		return FCFSBestFit{}, nil
	case "priority":
		return PreemptPriority{}, nil
	case "reconfig":
		return ReconfigAware{}, nil
	}
	return nil, fmt.Errorf("sim: unknown policy %q (want fcfs, priority or reconfig)", name)
}
