package sim

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
)

// refHeap is a binary min-heap of events in (at, seq) order, for heapReplay.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}

// heapReplay is the event loop as it ran on an event heap: every arrival
// sits in the heap from the start, its seq the input index; each slot event
// is pushed once the step that scheduled it ends; and a popped slot event
// that is no longer its slot's pending event — a completion a preemption
// replaced — is dropped as a no-op. (A slot event replaced within the step
// that scheduled it never reaches the heap: popping it would be a no-op
// too.) It returns the events in the order they were handled.
func heapReplay(cfg Config, jobs []Job) ([]event, Result) {
	en := new(engine)
	en.reset(cfg, jobs)
	en.arrived = len(jobs) // the cursor yields nothing
	h := make(refHeap, len(jobs))
	for ji := range jobs {
		h[ji] = event{at: jobs[ji].Arrival, seq: ji, kind: evArrival, job: ji}
	}
	heap.Init(&h)
	pushed := en.seq // every slot event numbered below it is in the heap
	var log []event
	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		if e.kind != evArrival {
			pend := &en.slots[e.slot].ev
			if pend.kind == evNone || pend.seq != e.seq {
				continue
			}
			pend.kind = evNone
		}
		log = append(log, e)
		en.step(e, nil)
		for si := range en.slots {
			if pend := en.slots[si].ev; pend.kind != evNone && pend.seq >= pushed {
				heap.Push(&h, pend)
			}
		}
		pushed = en.seq
	}
	return log, en.result()
}

// cursorReplay is the engine's loop with every handled event logged.
func cursorReplay(cfg Config, jobs []Job) ([]event, Result) {
	en := new(engine)
	en.reset(cfg, jobs)
	var log []event
	for {
		e, ok := en.next()
		if !ok {
			return log, en.result()
		}
		log = append(log, e)
		en.step(e, nil)
	}
}

// TestSlotEventsMatchHeap: random job lists — unsorted arrivals drawn from
// a few instants so that arrivals tie with each other and with loads and
// completions, sorted lists, and all-simultaneous lists — and the bench mix
// handle the same event sequence and give the same Result whether events
// come from the arrival cursor and the slots' pending events or from a heap
// holding every arrival and every scheduled slot event. A completed run
// handles exactly one event per arrival, load or restore, and completion;
// Run and the engine's loop agree.
func TestSlotEventsMatchHeap(t *testing.T) {
	const prms = 3
	runs, preemptions := 0, int64(0)
	check := func(where string, cfg Config, jobs []Job) {
		t.Helper()
		wantLog, want := heapReplay(cfg, jobs)
		gotLog, got := cursorReplay(cfg, jobs)
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range min(len(gotLog), len(wantLog)) {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("%s: event %d is %+v, the heap replay's is %+v", where, i, gotLog[i], wantLog[i])
				}
			}
			t.Fatalf("%s: %d events, the heap replay handles %d", where, len(gotLog), len(wantLog))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result\n got %+v\nwant %+v", where, got, want)
		}
		if got.Completed == got.Jobs {
			if n := got.Jobs + int(got.Reconfigs) + got.Completed; len(gotLog) != n {
				t.Fatalf("%s: %d events handled, want jobs + reconfigs + completions = %d (%d preemptions)",
					where, len(gotLog), n, got.Preemptions)
			}
		}
		en := new(engine)
		en.reset(cfg, jobs)
		if err := en.loop(context.Background(), nil); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if en.events != len(gotLog) {
			t.Fatalf("%s: the loop counts %d events, %d were handled", where, en.events, len(gotLog))
		}
		res, err := Run(context.Background(), cfg, jobs, nil)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: Run result\n got %+v\nwant %+v", where, res, want)
		}
		runs++
		preemptions += got.Preemptions
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for rep := 0; rep < 120; rep++ {
		plat := sharedTestPlatform(1+rng.IntN(3), prms)
		jobs := make([]Job, rng.IntN(150))
		instants := 1 + rng.IntN(12)
		for i := range jobs {
			jobs[i] = Job{ID: i, PRM: rng.IntN(prms),
				// 100 µs steps land on the 100 µs loads of the platform.
				Arrival:  time.Duration(rng.IntN(instants)) * 100 * time.Microsecond,
				Exec:     time.Duration(1+rng.IntN(4)) * 100 * time.Microsecond,
				Priority: rng.IntN(3)}
		}
		switch rep % 3 {
		case 1:
			slices.SortStableFunc(jobs, func(a, b Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
		case 2:
			for i := range jobs {
				jobs[i].Arrival = 0
			}
		}
		for i, id := range rng.Perm(len(jobs)) {
			jobs[i].ID = id
		}
		for _, name := range PolicyNames() {
			pol, _ := PolicyByName(name)
			check(fmt.Sprintf("rep %d, %s, %d jobs", rep, name, len(jobs)),
				Config{Platform: plat, Policy: pol, Estimator: nsPerByte(1)}, jobs)
		}
	}
	jobs := benchMix(t)
	for _, name := range PolicyNames() {
		pol, _ := PolicyByName(name)
		check("bench mix, "+name, testConfig(pol), jobs)
	}
	if preemptions == 0 {
		t.Fatal("no run preempts; replaced completions go untested")
	}
	t.Logf("%d runs, %d preemptions", runs, preemptions)
}

// fcfsScan is FCFSBestFit.Decide as it was before it compared level heads:
// it scans the whole queue for the earliest (arrival, job ID).
func fcfsScan(v *View) (Action, bool) {
	head := -1
	for i, r := range v.Ready {
		if head < 0 || r.Arrival < v.Ready[head].Arrival ||
			(r.Arrival == v.Ready[head].Arrival && r.Job < v.Ready[head].Job) {
			head = i
		}
	}
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

// TestFCFSLevelHeadsMatchScan: on randomized ready queues and slot states
// (see randomState), FCFSBestFit picks exactly what the full scan picks.
func TestFCFSLevelHeadsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	en := new(engine)
	en.reset(Config{Platform: oraclePlatforms()[0].plat, Policy: FCFSBestFit{}, Estimator: nsPerByte(1)}, nil)
	picks := 0
	for trial := 0; trial < 5000; trial++ {
		randomState(t, rng, en)
		v := en.view(0)
		want, wantOK := fcfsScan(v)
		got, ok := FCFSBestFit{}.Decide(v)
		if got != want || ok != wantOK {
			t.Fatalf("trial %d: Decide = %+v, %v; the scan picks %+v, %v\nready %+v\nslots %+v",
				trial, got, ok, want, wantOK, v.Ready, v.Slots)
		}
		if ok {
			picks++
		}
	}
	if picks == 0 {
		t.Fatal("no trial started a job")
	}
}

// oraclePlatforms are the slot layouts the policy oracles run on, priced at
// 1 ns/byte with transfer volumes that differ per slot, so eviction costs
// differ too:
//   - shared: four slots of two sizes that every class fits, except one
//     class whose Compat list is a subset of the others';
//   - grouped: one slot per group, as BuildGroups makes them, two classes
//     sharing each of the first two;
//   - overlapping: lists that overlap without being equal, and two lists
//     holding the same slots in another order (distinct slot sets).
func oraclePlatforms() []struct {
	name string
	plat Platform
} {
	slots := func(n int) []PRR {
		var prrs []PRR
		for s := 0; s < n; s++ {
			prrs = append(prrs, PRR{Name: fmt.Sprintf("slot%d", s), Tiles: 100 * (1 + s%2),
				LoadBytes: 100_000 + 20_000*s, SaveBytes: 50_000 + 10_000*s, RestoreBytes: 110_000 + 20_000*s})
		}
		return prrs
	}
	classes := func(compat ...[]int) []PRM {
		var prms []PRM
		for m, c := range compat {
			prms = append(prms, PRM{Name: fmt.Sprintf("M%d", m), Compat: c})
		}
		return prms
	}
	all := []int{0, 1, 2, 3}
	return []struct {
		name string
		plat Platform
	}{
		{"shared", Platform{PRRs: slots(4), PRMs: classes(all, all, []int{1, 3})}},
		{"grouped", Platform{PRRs: slots(3), PRMs: classes([]int{0}, []int{0}, []int{1}, []int{1}, []int{2})}},
		{"overlapping", Platform{PRRs: slots(3), PRMs: classes([]int{0, 1}, []int{1, 2}, []int{0, 1, 2}, []int{2}, []int{1, 0})}},
	}
}

// randomState resets en on its platform and fills its slot table and ready
// queue at random: slot states, resident classes and running priorities;
// up to 40 jobs over 1-4 priority levels, with restore entries, arrivals
// and job IDs repeated within and across levels, and Remaining at, just
// below or just above some slot's eviction cost; then random takes, leaving
// a head offset. After the reset and after every enqueue and take it checks
// the slot sets against a recount.
func randomState(t *testing.T, rng *rand.Rand, en *engine) {
	t.Helper()
	en.reset(en.cfg, nil)
	checkSetHeads(t, en)
	plat := en.cfg.Platform
	var remaining []time.Duration
	for s := range plat.PRRs {
		for _, start := range []time.Duration{en.loadDur[s], en.restoreDur[s]} {
			cost := DefaultCaptureOverhead + en.saveDur[s] + start
			remaining = append(remaining, cost-1, cost, cost+1)
		}
	}
	remaining = append(remaining, time.Millisecond)
	prms := len(plat.PRMs)
	for s := range en.viewSlots {
		sv := SlotView{State: SlotState(rng.IntN(3)), Loaded: rng.IntN(prms+1) - 1}
		if sv.State == SlotRunning {
			sv.Priority = rng.IntN(4)
		}
		en.viewSlots[s] = sv
	}
	levels := 1 + rng.IntN(4)
	for range rng.IntN(40) {
		en.enqueue(ReadyView{Job: rng.IntN(20), PRM: rng.IntN(prms), Priority: rng.IntN(levels),
			Arrival: time.Duration(rng.IntN(8)), Remaining: remaining[rng.IntN(len(remaining))],
			Restore: rng.IntN(4) == 0})
		checkSetHeads(t, en)
	}
	for range rng.IntN(len(en.ready) + 1) {
		en.take(rng.IntN(len(en.ready) - en.head))
		checkSetHeads(t, en)
	}
}

// checkSetHeads recounts en's slot sets: two classes share a
// set exactly when their Compat lists are equal, and each set's head and
// length match the queue. It also recounts fcfs's head, the first job in
// queue order with the earliest (arrival, job ID), against en.fcfs(); that
// forces the engine's head live, so the next enqueue and take update it.
func checkSetHeads(t *testing.T, en *engine) {
	t.Helper()
	prms := en.cfg.Platform.PRMs
	for p := range prms {
		for q := range prms {
			if same := en.setOf[p] == en.setOf[q]; same != slices.Equal(prms[p].Compat, prms[q].Compat) {
				t.Fatalf("classes %d %v and %d %v: same slot set is %v", p, prms[p].Compat, q, prms[q].Compat, same)
			}
		}
	}
	q := en.ready[en.head:]
	for s, h := range en.setHead {
		head, n := -1, 0
		for i := range q {
			if en.setOf[q[i].PRM] == s {
				if head < 0 {
					head = i
				}
				n++
			}
		}
		if h != head || en.setLen[s] != n {
			t.Fatalf("slot set %d: head %d of %d jobs, the queue has head %d of %d\nready %+v",
				s, h, en.setLen[s], head, n, q)
		}
	}
	head := -1
	for i, r := range q {
		if head < 0 || r.Arrival < q[head].Arrival || r.Arrival == q[head].Arrival && r.Job < q[head].Job {
			head = i
		}
	}
	if h := en.fcfs(); h != head {
		t.Fatalf("fcfs head %d, the queue has %d\nready %+v", h, head, q)
	}
}

// priorityScan is PreemptPriority.Decide as it was before it tested slot-set
// heads: it walks Ready in priority order and starts the first job that can.
func priorityScan(v *View) (Action, bool) {
	floor := startFloor(v)
	for ri, r := range v.Ready {
		if r.Priority <= floor {
			break // Ready is in priority order: no later job starts either
		}
		// Idle slot first: warm, then smallest, then lowest index.
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
		// Otherwise evict the weakest strictly lower-priority victim.
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
	}
	return Action{}, false
}

// reconfigScan is ReconfigAware.Decide as it was before it tested slot-set
// heads: it walks Ready in priority order and starts the first job that
// has a slot worth taking.
func reconfigScan(v *View) (Action, bool) {
	floor := startFloor(v)
	for ri, r := range v.Ready {
		if r.Priority <= floor {
			break // Ready is in priority order: no later job starts either
		}
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
		if best >= 0 {
			return Action{Ready: ri, Slot: best, Preempt: bestPre}, true
		}
	}
	return Action{}, false
}

// scanOracles pairs each policy that tests slot-set heads with its scan.
var scanOracles = []struct {
	pol  Policy
	scan func(*View) (Action, bool)
}{{PreemptPriority{}, priorityScan}, {ReconfigAware{}, reconfigScan}}

// TestPolicySetHeadsMatchScan: on every oracle platform and thousands of
// randomized ready queues and slot states (see randomState), priority and
// reconfig return exactly the Action their full scans return. The trials
// must reach preemptions, picks that are not the earliest set head, and,
// under reconfig, picks that are not a set head at all: a job that starts
// because its set's head, ranking higher, finds every eviction too dear.
func TestPolicySetHeadsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, p := range oraclePlatforms() {
		for _, o := range scanOracles {
			en := new(engine)
			en.reset(Config{Platform: p.plat, Policy: o.pol, Estimator: nsPerByte(1)}, nil)
			var picks, preempts, laterHead, notHead int
			for trial := 0; trial < 1500; trial++ {
				randomState(t, rng, en)
				v := en.view(0)
				want, wantOK := o.scan(v)
				got, ok := o.pol.Decide(v)
				if got != want || ok != wantOK {
					t.Fatalf("%s, %s, trial %d: Decide = %+v, %v; the scan picks %+v, %v\nready %+v\nslots %+v\nheads %v",
						p.name, o.pol.Name(), trial, got, ok, want, wantOK, v.Ready, v.Slots, v.SetHeads())
				}
				if !ok {
					continue
				}
				picks++
				if got.Preempt {
					preempts++
				}
				first := len(v.Ready)
				for _, h := range v.SetHeads() {
					if h >= 0 {
						first = min(first, h)
					}
				}
				switch {
				case !slices.Contains(v.SetHeads(), got.Ready):
					notHead++
				case got.Ready > first:
					laterHead++
				}
			}
			t.Logf("%s, %s: %d picks, %d preempt, %d a later set head, %d not a set head",
				p.name, o.pol.Name(), picks, preempts, laterHead, notHead)
			if preempts == 0 || laterHead == 0 {
				t.Errorf("%s, %s: %d preemptions and %d picks of a later set head; the trials miss a case",
					p.name, o.pol.Name(), preempts, laterHead)
			}
			if _, reconfig := o.pol.(ReconfigAware); reconfig && notHead == 0 {
				t.Errorf("%s, reconfig: no pick walked past its set's head", p.name)
			}
		}
	}
}

// scanCheck runs a policy and fails the test on any Decide whose Action
// differs from its scan's on the same View.
type scanCheck struct {
	Policy
	scan  func(*View) (Action, bool)
	t     *testing.T
	calls int
}

func (p *scanCheck) Decide(v *View) (Action, bool) {
	p.calls++
	got, ok := p.Policy.Decide(v)
	if want, wantOK := p.scan(v); got != want || ok != wantOK {
		p.t.Fatalf("at %v: Decide = %+v, %v; the scan picks %+v, %v\nready %+v\nslots %+v",
			v.Now, got, ok, want, wantOK, v.Ready, v.Slots)
	}
	return got, ok
}

// TestReplaysMatchScanPolicies replays randomized saturated mixes (bursty
// and simultaneous arrivals, 1-4 priority levels) on every oracle platform,
// the platforms in parallel through the pooled engines, and checks every
// Decide of priority and reconfig against its scan.
func TestReplaysMatchScanPolicies(t *testing.T) {
	for pi, p := range oraclePlatforms() {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(11, uint64(pi)))
			calls := 0
			for rep := 0; rep < 24; rep++ {
				mix := Mix{Jobs: 100 + rng.IntN(200), Seed: rng.Uint64() | 1,
					Arrival:        []Arrival{ArrivalBursty, ArrivalSimultaneous}[rep%2],
					MeanGap:        time.Duration(20+rng.IntN(100)) * time.Microsecond,
					MeanExec:       time.Duration(100+rng.IntN(300)) * time.Microsecond,
					PriorityLevels: 1 + rep%4,
				}
				jobs, err := mix.Generate(len(p.plat.PRMs))
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range scanOracles {
					check := &scanCheck{Policy: o.pol, scan: o.scan, t: t}
					if _, err := Run(context.Background(),
						Config{Platform: p.plat, Policy: check, Estimator: nsPerByte(1)}, jobs, nil); err != nil {
						t.Fatalf("%s, %+v: %v", o.pol.Name(), mix, err)
					}
					calls += check.calls
				}
			}
			t.Logf("%d decisions", calls)
		})
	}
}

// TestRunObservesHistogramsOnce: one Run grows sim_wait_seconds and
// sim_reconfig_seconds by what per-value Observe of its waits and transfers
// gives — one wait per completed job, one duration per ICAP transfer — in
// every bucket, the count and (to 1e-9 relative) the sum.
func TestRunObservesHistogramsOnce(t *testing.T) {
	mix := Mix{Jobs: 400, Seed: 3, MeanGap: 60 * time.Microsecond,
		MeanExec: 300 * time.Microsecond, PriorityLevels: 3}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(PreemptPriority{})
	wait0, reconfig0 := metWaitTime.Snapshot(), metReconfigTime.Snapshot()
	res, err := Run(context.Background(), cfg, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wait1, reconfig1 := metWaitTime.Snapshot(), metReconfigTime.Snapshot()

	en := new(engine)
	en.reset(cfg, jobs)
	if err := en.loop(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wantWait := reg.Histogram("wait", "", obs.LatencyBuckets)
	for _, w := range en.waits {
		wantWait.Observe(w.Seconds())
	}
	wantReconfig := reg.Histogram("reconfig", "", obs.LatencyBuckets)
	for _, d := range en.xferDurs {
		wantReconfig.Observe(d.Seconds())
	}
	if int64(len(en.waits)) != int64(res.Completed) || int64(len(en.xferDurs)) != res.ICAPTransfers {
		t.Fatalf("%d waits and %d transfers for %d completions and %d transfers",
			len(en.waits), len(en.xferDurs), res.Completed, res.ICAPTransfers)
	}
	if res.Preemptions == 0 {
		t.Fatal("the mix never preempts; restore transfers go untested")
	}
	if busy, sum := time.Duration(res.ICAPBusyNS).Seconds(), reconfig1.Sum-reconfig0.Sum; math.Abs(sum-busy) > 1e-9*busy {
		t.Errorf("sim_reconfig_seconds sum grew by %g, the run's ICAP busy time is %g s", sum, busy)
	}
	for _, c := range []struct {
		name          string
		before, after obs.HistogramSnapshot
		want          obs.HistogramSnapshot
	}{
		{"sim_wait_seconds", wait0, wait1, wantWait.Snapshot()},
		{"sim_reconfig_seconds", reconfig0, reconfig1, wantReconfig.Snapshot()},
	} {
		for i := range c.want.Counts {
			if d := c.after.Counts[i] - c.before.Counts[i]; d != c.want.Counts[i] {
				t.Errorf("%s bucket %d grew by %d, per-value Observe gives %d", c.name, i, d, c.want.Counts[i])
			}
		}
		if d := c.after.Count - c.before.Count; d != c.want.Count {
			t.Errorf("%s count grew by %d, want %d", c.name, d, c.want.Count)
		}
		if sum := c.after.Sum - c.before.Sum; math.Abs(sum-c.want.Sum) > 1e-9*math.Abs(c.want.Sum) {
			t.Errorf("%s sum grew by %g, per-value Observe gives %g", c.name, sum, c.want.Sum)
		}
	}
}
