package sim

import (
	"cmp"
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

// heapReplay is the event loop as it ran before arrivals streamed from a
// cursor: every arrival is pushed into the eventHeap up front, its seq the
// input index, and events pop from the heap alone. It returns the events in
// the order they were handled.
func heapReplay(cfg Config, jobs []Job) ([]event, Result) {
	en := new(engine)
	en.reset(cfg, jobs)
	en.arrived = len(jobs) // the cursor yields nothing
	en.seq = 0
	for ji := range jobs {
		en.push(event{at: jobs[ji].Arrival, kind: evArrival, job: ji})
	}
	var log []event
	for len(en.h) > 0 {
		e := en.h.pop()
		log = append(log, e)
		en.step(e, nil)
	}
	return log, en.result()
}

// cursorReplay is the engine's loop with every handled event logged.
func cursorReplay(cfg Config, jobs []Job) ([]event, Result) {
	en := new(engine)
	en.reset(cfg, jobs)
	var log []event
	for en.pending() {
		e := en.next()
		log = append(log, e)
		en.step(e, nil)
	}
	return log, en.result()
}

// TestArrivalCursorMatchesHeap: random job lists — unsorted arrivals drawn
// from a few instants so that arrivals tie with each other and with loads
// and completions, sorted lists, and all-simultaneous lists — handle the
// same event sequence and give the same Result whether arrivals stream from
// the cursor or all sit in the heap from the start. Run agrees with both.
func TestArrivalCursorMatchesHeap(t *testing.T) {
	const prms = 3
	rng := rand.New(rand.NewPCG(5, 6))
	runs := 0
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
			cfg := Config{Platform: plat, Policy: pol, Estimator: nsPerByte(1)}
			where := fmt.Sprintf("rep %d, %s, %d jobs", rep, name, len(jobs))
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
			res, err := Run(context.Background(), cfg, jobs, nil)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: Run result\n got %+v\nwant %+v", where, res, want)
			}
			runs++
		}
	}
	t.Logf("%d runs", runs)
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

// TestFCFSLevelHeadsMatchScan: on randomized ready queues — restore entries,
// arrivals and job IDs repeated within and across priority levels, a head
// offset left by earlier takes — and random slot states on slots of mixed
// sizes, FCFSBestFit picks exactly what the full scan picks.
func TestFCFSLevelHeadsMatchScan(t *testing.T) {
	const prms = 3
	rng := rand.New(rand.NewPCG(7, 8))
	plat := sharedTestPlatform(4, prms)
	for s := range plat.PRRs {
		plat.PRRs[s].Tiles = 100 * (1 + s%2)
	}
	plat.PRMs[2].Compat = []int{1, 3}
	en := new(engine)
	en.reset(Config{Platform: plat, Policy: FCFSBestFit{}, Estimator: nsPerByte(1)}, nil)
	picks := 0
	for trial := 0; trial < 5000; trial++ {
		for s := range en.slots {
			sl := &en.slots[s]
			sl.state = SlotState(rng.IntN(3))
			sl.loaded = rng.IntN(prms+1) - 1
			sl.cur.Priority = rng.IntN(4)
		}
		en.ready, en.head = en.ready[:0], 0
		levels := 1 + rng.IntN(4)
		for range rng.IntN(40) {
			en.enqueue(ReadyView{Job: rng.IntN(20), PRM: rng.IntN(prms), Priority: rng.IntN(levels),
				Arrival: time.Duration(rng.IntN(8)), Restore: rng.IntN(4) == 0})
		}
		for range rng.IntN(len(en.ready) + 1) {
			en.take(rng.IntN(len(en.ready) - en.head))
		}
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
