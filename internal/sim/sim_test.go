package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
)

var update = flag.Bool("update", false, "rewrite golden files")

// nsPerByte prices transfers at a fixed rate so test arithmetic stays exact.
type nsPerByte int

func (r nsPerByte) Estimate(bytes int) time.Duration {
	return time.Duration(bytes * int(r))
}

func (nsPerByte) Name() string { return "test-linear" }

// testPlatform is two 100-tile slots sharing two PRM classes, with load =
// 100µs, save = 50µs, restore = 110µs at 1ns/byte.
func testPlatform() Platform {
	prr := PRR{Tiles: 100, LoadBytes: 100_000, SaveBytes: 50_000, RestoreBytes: 110_000}
	a, b := prr, prr
	a.Name, b.Name = "slot0", "slot1"
	return Platform{
		PRRs: []PRR{a, b},
		PRMs: []PRM{
			{Name: "M0", Compat: []int{0, 1}},
			{Name: "M1", Compat: []int{0, 1}},
		},
	}
}

func testConfig(p Policy) Config {
	return Config{
		Platform:  testPlatform(),
		Policy:    p,
		Estimator: nsPerByte(1),
	}
}

func TestRunCompletesAllPolicies(t *testing.T) {
	mix := Mix{Jobs: 300, Seed: 7, MeanGap: 60 * time.Microsecond,
		MeanExec: 300 * time.Microsecond, PriorityLevels: 3}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), testConfig(pol), jobs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Completed != len(jobs) {
			t.Fatalf("%s: completed %d of %d", name, res.Completed, len(jobs))
		}
		if res.MakespanNS <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
			t.Fatalf("%s: implausible summary %+v", name, res)
		}
		if res.ICAPBusy < 0 || res.ICAPBusy > 1 {
			t.Fatalf("%s: ICAP busy fraction %v out of range", name, res.ICAPBusy)
		}
		if name == "fcfs" && res.Preemptions != 0 {
			t.Fatalf("fcfs preempted %d times", res.Preemptions)
		}
	}
}

// TestDeterministicReplay is the determinism contract under -race: two runs
// of the same seed and config must produce bit-identical snapshot streams
// and final summaries.
func TestDeterministicReplay(t *testing.T) {
	mix := Mix{Jobs: 500, Seed: 42, MeanGap: 40 * time.Microsecond,
		MeanExec: 350 * time.Microsecond, PriorityLevels: 4, Arrival: ArrivalBursty}
	run := func() []byte {
		jobs, err := mix.Generate(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(PreemptPriority{})
		cfg.SnapshotEvery = 50
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		res, err := Run(context.Background(), cfg, jobs, func(s Snapshot) bool {
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("replay diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestGoldenStream pins the exact NDJSON bytes of one run, so any change to
// the engine's arithmetic or field layout is a conscious golden update.
func TestGoldenStream(t *testing.T) {
	mix := Mix{Jobs: 120, Seed: 9, MeanGap: 80 * time.Microsecond,
		MeanExec: 400 * time.Microsecond, PriorityLevels: 3}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ReconfigAware{})
	cfg.SnapshotEvery = 30
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	res, err := Run(context.Background(), cfg, jobs, func(s Snapshot) bool {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stream_golden.ndjson")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream differs from golden (re-run with -update if intentional):\n--- got\n%s\n--- want\n%s", buf.Bytes(), want)
	}
}

// TestPreemptionQueuesBehindTransfer pins the "queue, not abort" invariant:
// a high-priority arrival during the victim's load transfer must wait for
// the load and the exec start — an in-flight ICAP transfer is never
// cancelled, and a loading slot is never preempted.
func TestPreemptionQueuesBehindTransfer(t *testing.T) {
	plat := testPlatform()
	plat.PRRs = plat.PRRs[:1] // single slot forces the conflict
	plat.PRMs[0].Compat = []int{0}
	plat.PRMs[1].Compat = []int{0}
	cfg := Config{Platform: plat, Policy: PreemptPriority{}, Estimator: nsPerByte(1)}
	load := 100 * time.Microsecond
	save := 50 * time.Microsecond
	restore := 110 * time.Microsecond
	jobs := []Job{
		{ID: 0, PRM: 0, Arrival: 0, Exec: 500 * time.Microsecond, Priority: 0},
		// arrives mid-load of job 0 (load runs 0..100µs)
		{ID: 1, PRM: 1, Arrival: 40 * time.Microsecond, Exec: 200 * time.Microsecond, Priority: 5},
	}
	res, err := Run(context.Background(), cfg, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Preemptions != 1 {
		t.Fatalf("want 2 completions and 1 preemption, got %+v", res)
	}
	// Timeline: load0 0..100µs; preemption fires when job 0 starts running
	// (t=100µs): save 102..152µs, load1 152..252µs, exec1 252..452µs,
	// restore0 452..562µs, exec0 resumes 562µs for its full 500µs.
	wantMakespan := load + 2*time.Microsecond + save + load + jobs[1].Exec + restore + jobs[0].Exec
	if got := time.Duration(res.MakespanNS); got != wantMakespan {
		t.Fatalf("makespan %v, want %v (preemption must queue behind the transfer)", got, wantMakespan)
	}
	if res.ICAPTransfers != 4 {
		t.Fatalf("want 4 ICAP transfers (load, save, load, restore), got %d", res.ICAPTransfers)
	}
	if got, want := time.Duration(res.ICAPBusyNS), load+save+load+restore; got != want {
		t.Fatalf("ICAP busy %v, want %v", got, want)
	}
}

func TestZeroJobs(t *testing.T) {
	snaps := 0
	res, err := Run(context.Background(), testConfig(FCFSBestFit{}), nil, func(Snapshot) bool {
		snaps++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 0 || res.Completed != 0 || res.MakespanNS != 0 {
		t.Fatalf("zero-job run produced %+v", res)
	}
	if snaps != 1 {
		t.Fatalf("want exactly the final snapshot, got %d", snaps)
	}
}

func TestSimultaneousArrivals(t *testing.T) {
	mix := Mix{Jobs: 64, Seed: 3, Arrival: ArrivalSimultaneous,
		MeanExec: 200 * time.Microsecond, PriorityLevels: 2}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Arrival != 0 {
			t.Fatalf("job %d arrives at %v", j.ID, j.Arrival)
		}
	}
	res, err := Run(context.Background(), testConfig(PreemptPriority{}), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d", res.Completed, len(jobs))
	}
}

func TestOversizePRM(t *testing.T) {
	// A PRM with no compatible PRR is rejected up front (the engine-level
	// face of the oversize semantics).
	plat := testPlatform()
	plat.PRMs[1].Compat = nil
	cfg := testConfig(FCFSBestFit{})
	cfg.Platform = plat
	_, err := Run(context.Background(), cfg, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "fits no PRR") {
		t.Fatalf("want fits-no-PRR error, got %v", err)
	}

	// And a module larger than the device makes BuildShared fail with the
	// cost models' own infeasibility.
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		t.Fatal(err)
	}
	huge := Spec{Name: "huge", Req: dse.SyntheticPRMs(1)[0].Req}
	huge.Req.LUTs = 10_000_000
	huge.Req.LUTFFPairs = 10_000_000
	if _, err := BuildShared(dev, []Spec{huge}, 1); err == nil {
		t.Fatal("want infeasible shared PRR for oversize module")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig(FCFSBestFit{})
	if _, err := Run(context.Background(), cfg, []Job{{ID: 0, PRM: 9, Exec: time.Millisecond}}, nil); err == nil {
		t.Fatal("want unknown-PRM error")
	}
	if _, err := Run(context.Background(), cfg, []Job{{ID: 0, PRM: 0}}, nil); err == nil {
		t.Fatal("want non-positive-exec error")
	}
	cfg.Policy = nil
	if _, err := Run(context.Background(), cfg, nil, nil); err == nil {
		t.Fatal("want nil-policy error")
	}
}

func TestRunCancellation(t *testing.T) {
	mix := Mix{Jobs: 50_000, Seed: 1, MeanGap: 10 * time.Microsecond,
		MeanExec: 400 * time.Microsecond}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(FCFSBestFit{}), jobs, nil); err == nil {
		t.Fatal("want context cancellation error")
	}
}

// passPolicy never schedules anything: the engine must flag the stranded
// jobs instead of reporting a clean run.
type passPolicy struct{}

func (passPolicy) Name() string                { return "pass" }
func (passPolicy) Decide(*View) (Action, bool) { return Action{}, false }

func TestStrandedJobsError(t *testing.T) {
	cfg := testConfig(passPolicy{})
	jobs := []Job{{ID: 0, PRM: 0, Exec: time.Millisecond}}
	_, err := Run(context.Background(), cfg, jobs, nil)
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("want stranded-jobs error, got %v", err)
	}
}

func TestMixValidation(t *testing.T) {
	cases := []Mix{
		{Jobs: -1},
		{Jobs: 1, Arrival: "poisson"},
		{Jobs: 1, Weights: []int{1}},                             // wrong arity for 2 classes
		{Jobs: 1, Weights: []int{0, 0}},                          // all zero
		{Jobs: 1, Weights: []int{-1, 2}},                         // negative
		{Jobs: 1, MeanGap: -time.Microsecond},                    // negative duration
		{Jobs: 50, MeanGap: 1 << 50 * time.Microsecond},          // wraps the clock
		{Jobs: 1_000_000, MeanGap: time.Millisecond},             // jobs² × span over budget
		{Jobs: 2, MeanExec: MaxMixMean + 1},                      // mean over the cap
		{Jobs: 1000, MeanGap: MaxMixLoad / 1000 / 1000 / 4},      // default exec tips it over
		{Jobs: 100, Arrival: ArrivalBursty, MeanGap: MaxMixMean}, // 100² × 4 × 1000h
	}
	for i, m := range cases {
		if _, err := m.Generate(2); err == nil {
			t.Fatalf("case %d: want error for %+v", i, m)
		}
		if err := m.Validate(2); err == nil {
			t.Fatalf("case %d: Validate accepts %+v", i, m)
		}
	}
	if _, err := (Mix{Jobs: 1}).Generate(0); err == nil {
		t.Fatal("want error for zero PRM classes")
	}
	// The largest accepted gaps keep every arrival step non-negative.
	for _, arr := range []Arrival{ArrivalUniform, ArrivalBursty} {
		m := Mix{Jobs: 1000, Arrival: arr, Burst: 1, MeanExec: time.Nanosecond,
			MeanGap: (MaxMixLoad/1000/1000 - 2) / 4}
		jobs, err := m.Generate(2)
		if err != nil {
			t.Fatalf("%s: bound mix rejected: %v", arr, err)
		}
		for i := 1; i < len(jobs); i++ {
			if jobs[i].Arrival < jobs[i-1].Arrival {
				t.Fatalf("%s: arrival %d went backwards: %v after %v", arr, i, jobs[i].Arrival, jobs[i-1].Arrival)
			}
		}
	}
}

func TestMixDeterminismAndWeights(t *testing.T) {
	m := Mix{Jobs: 200, Seed: 11, MeanGap: 50 * time.Microsecond,
		Weights: []int{0, 3, 1}, PriorityLevels: 3}
	a, _ := m.Generate(3)
	b, _ := m.Generate(3)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same mix generated different jobs")
	}
	for _, j := range a {
		if j.PRM == 0 {
			t.Fatal("zero-weight class was drawn")
		}
		if j.Priority < 0 || j.Priority > 2 {
			t.Fatalf("priority %d out of range", j.Priority)
		}
	}
}

func TestBuildSharedAndGroups(t *testing.T) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, p := range dse.SyntheticPRMs(4) {
		specs = append(specs, Spec{Name: p.Name, Req: p.Req})
	}
	plat, err := BuildShared(dev, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plat.PRRs) != 2 || len(plat.PRMs) != 4 {
		t.Fatalf("shared platform %d PRRs / %d PRMs", len(plat.PRRs), len(plat.PRMs))
	}
	for _, prr := range plat.PRRs {
		if prr.LoadBytes <= 0 || prr.SaveBytes <= 0 || prr.RestoreBytes <= prr.LoadBytes {
			t.Fatalf("implausible transfer volumes %+v", prr)
		}
	}
	gplat, err := BuildGroups(dev, specs, [][]int{{0, 2}, {1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gplat.PRRs) != 3 {
		t.Fatalf("group platform has %d PRRs", len(gplat.PRRs))
	}
	if got := gplat.PRMs[2].Compat; len(got) != 1 || got[0] != 0 {
		t.Fatalf("spec 2 compat %v, want [0]", got)
	}
	if _, err := BuildGroups(dev, specs, [][]int{{0}, {0, 1, 2, 3}}); err == nil {
		t.Fatal("want duplicate-membership error")
	}
	if _, err := BuildGroups(dev, specs, [][]int{{0, 1}}); err == nil {
		t.Fatal("want missing-membership error")
	}
}

func TestCoExploreRanksFront(t *testing.T) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, p := range dse.SyntheticPRMs(4) {
		specs = append(specs, Spec{Name: p.Name, Req: p.Req})
	}
	fcfs, _ := PolicyByName("fcfs")
	rec, _ := PolicyByName("reconfig")
	cfg := CoExploreConfig{
		Policies: []Policy{fcfs, rec},
		Mix: Mix{Jobs: 150, Seed: 5, MeanGap: 60 * time.Microsecond,
			MeanExec: 300 * time.Microsecond, PriorityLevels: 3},
	}
	scores, front, stats, err := CoExplore(context.Background(), dev, specs, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 || stats.Evaluated == 0 {
		t.Fatalf("empty exploration: front=%d stats=%+v", len(front), stats)
	}
	wantRuns := len(front)
	if wantRuns > DefaultMaxOrgs {
		wantRuns = DefaultMaxOrgs
	}
	if len(scores) != 2*wantRuns {
		t.Fatalf("want %d scores, got %d", 2*wantRuns, len(scores))
	}
	for i := 1; i < len(scores); i++ {
		a, b := scores[i-1], scores[i]
		if a.Policy == b.Policy && a.Result.P99WaitNS > b.Result.P99WaitNS {
			t.Fatalf("scores not ranked by p99 within policy: %+v then %+v", a.Result, b.Result)
		}
	}
	for _, sc := range scores {
		if sc.Result.Completed != cfg.Mix.Jobs {
			t.Fatalf("org %d policy %s completed %d of %d", sc.Org, sc.Policy, sc.Result.Completed, cfg.Mix.Jobs)
		}
	}
}

func TestVisitorStopsRun(t *testing.T) {
	mix := Mix{Jobs: 1000, Seed: 2, MeanGap: 20 * time.Microsecond,
		MeanExec: 300 * time.Microsecond}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(FCFSBestFit{})
	cfg.SnapshotEvery = 10
	seen := 0
	res, err := Run(context.Background(), cfg, jobs, func(Snapshot) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("visitor called %d times, want 3", seen)
	}
	if res.Completed == 0 || res.Completed == len(jobs) {
		t.Fatalf("want a partial run, got %d of %d", res.Completed, len(jobs))
	}
}

// TestResultStableAcrossCalls guards the in-place wait-ledger sort: result()
// must be idempotent, returning identical quantiles on every call instead
// of re-copying and re-sorting the waits slice.
func TestResultStableAcrossCalls(t *testing.T) {
	mix := Mix{Jobs: 400, Seed: 9, MeanGap: 50 * time.Microsecond,
		MeanExec: 300 * time.Microsecond, PriorityLevels: 3, Arrival: ArrivalBursty}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(PreemptPriority{})
	en := new(engine)
	en.reset(cfg, jobs)
	if err := en.loop(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	first := en.result()
	for i := 0; i < 3; i++ {
		if got := en.result(); !reflect.DeepEqual(got, first) {
			t.Fatalf("result call %d differs:\n got %+v\nwant %+v", i+2, got, first)
		}
	}
	if first.P99WaitNS < first.MeanWaitNS || first.MaxWaitNS < first.P99WaitNS {
		t.Fatalf("implausible quantiles: mean=%d p99=%d max=%d",
			first.MeanWaitNS, first.P99WaitNS, first.MaxWaitNS)
	}
}

// TestPooledRunsIdentical replays the same mix through the public Run twice;
// the second run reuses the pooled engine arena and must produce an
// identical Result. An engine reused after a partial run — stopped by its
// visitor, or cancelled mid-run, both leaving slot events pending and jobs
// queued — must replay like a fresh one: reset clears what the run left.
func TestPooledRunsIdentical(t *testing.T) {
	mix := Mix{Jobs: 600, Seed: 13, MeanGap: 40 * time.Microsecond,
		MeanExec: 250 * time.Microsecond, PriorityLevels: 4, Arrival: ArrivalBursty}
	jobs, err := mix.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		pol, _ := PolicyByName(name)
		cfg := testConfig(pol)
		a, err := Run(context.Background(), cfg, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), cfg, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %s: pooled re-run differs:\n got %+v\nwant %+v", name, b, a)
		}

		// A stale slot event fires in a replay only if its slot stays idle
		// past it, so the reused engine also replays the mix started late.
		late := slices.Clone(jobs)
		for i := range late {
			late[i].Arrival += time.Second
		}
		for _, replay := range [][]Job{jobs, late} {
			for _, how := range []string{"stopped by its visitor", "cancelled"} {
				cancelled := how == "cancelled"
				ctx, cancel := context.WithCancel(context.Background())
				en := new(engine)
				partial := cfg
				partial.SnapshotEvery = 20
				en.reset(partial, jobs)
				err := en.loop(ctx, func(s Snapshot) bool {
					if cancelled && s.Seq == 2 {
						cancel()
					}
					return cancelled || s.Seq < 2
				})
				cancel()
				if (err != nil) != cancelled {
					t.Fatalf("policy %s, run %s: loop returned %v", name, how, err)
				}
				pending := false
				for _, sl := range en.slots {
					pending = pending || sl.ev.kind != evNone
				}
				if !pending || len(en.ready) == en.head || en.completed == len(jobs) {
					t.Fatalf("policy %s, run %s: %d of %d completed, %d queued, slot events pending %v; want a partial run with both",
						name, how, en.completed, len(jobs), len(en.ready)-en.head, pending)
				}
				en.reset(cfg, replay)
				if err := en.loop(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
				fresh := new(engine)
				fresh.reset(cfg, replay)
				if err := fresh.loop(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
				if got, want := en.result(), fresh.result(); !reflect.DeepEqual(got, want) || en.events != fresh.events {
					t.Fatalf("policy %s: engine reused after a run %s replays differently (%d events, want %d):\n got %+v\nwant %+v",
						name, how, en.events, fresh.events, got, want)
				}
			}
		}
	}
}

// TestCoExploreParallelMatchesSequential is the determinism contract of the
// parallel sweep: on a randomized mix, any worker count must return
// byte-identical ranked scores (run under -race in CI).
func TestCoExploreParallelMatchesSequential(t *testing.T) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, p := range dse.SyntheticPRMs(5) {
		specs = append(specs, Spec{Name: p.Name, Req: p.Req})
	}
	base := CoExploreConfig{
		Mix: Mix{Jobs: 120, Seed: 31, MeanGap: 70 * time.Microsecond,
			MeanExec: 320 * time.Microsecond, PriorityLevels: 3, Arrival: ArrivalBursty},
		SnapshotEvery: 25,
	}
	run := func(workers int) ([]OrgScore, int) {
		cfg := base
		cfg.Workers = workers
		snaps := 0
		scores, front, _, err := CoExplore(context.Background(), dev, specs, cfg,
			func(int, string, Snapshot) bool { snaps++; return true },
			func(OrgScore) bool { return true })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(front) == 0 || len(scores) == 0 {
			t.Fatalf("workers=%d: empty co-exploration", workers)
		}
		if snaps == 0 {
			t.Fatalf("workers=%d: no snapshots streamed", workers)
		}
		return scores, snaps
	}
	seq, seqSnaps := run(1)
	for _, workers := range []int{2, 4, 8} {
		par, parSnaps := run(workers)
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("workers=%d: ranked scores differ from sequential", workers)
		}
		if parSnaps != seqSnaps {
			t.Fatalf("workers=%d: %d snapshots, sequential emitted %d", workers, parSnaps, seqSnaps)
		}
	}
}

// TestCoExploreScoreStopsParallelSweep checks early stop under parallel
// replay: after the score callback vetoes, the sweep winds down without
// error and returns only already-completed runs.
func TestCoExploreScoreStopsParallelSweep(t *testing.T) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, p := range dse.SyntheticPRMs(4) {
		specs = append(specs, Spec{Name: p.Name, Req: p.Req})
	}
	cfg := CoExploreConfig{
		Mix: Mix{Jobs: 100, Seed: 3, MeanGap: 60 * time.Microsecond,
			MeanExec: 300 * time.Microsecond},
		Workers: 4,
	}
	seen := 0
	scores, _, _, err := CoExplore(context.Background(), dev, specs, cfg, nil,
		func(OrgScore) bool { seen++; return seen < 2 })
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("score callback fired %d times, want 2", seen)
	}
	if len(scores) < 2 {
		t.Fatalf("want at least the 2 scored runs back, got %d", len(scores))
	}
}

// paperSpecs returns the paper's three PRMs with their Table V requirements
// on devName.
func paperSpecs(t *testing.T, devName string) (*device.Device, []Spec) {
	t.Helper()
	dev, err := device.Lookup(devName)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, prm := range []string{"FIR", "MIPS", "SDRAM"} {
		row, ok := core.PaperTableVRow(prm, devName)
		if !ok {
			t.Fatalf("no Table V row for %s/%s", prm, devName)
		}
		specs = append(specs, Spec{Name: prm, Req: row.Req})
	}
	return dev, specs
}

// roundRobin emits n jobs cycling through nPRMs classes at a fixed gap —
// the worst case for reconfiguration churn.
func roundRobin(nPRMs, n int, gap, exec time.Duration) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, PRM: i % nPRMs, Arrival: time.Duration(i) * gap, Exec: exec}
	}
	return jobs
}

// runFCFS replays jobs on plat under FCFSBestFit with the ICAP-32/DDR
// estimator the paper-scale examples use.
func runFCFS(t *testing.T, plat Platform, jobs []Job) Result {
	t.Helper()
	res, err := Run(context.Background(), Config{
		Platform:  plat,
		Policy:    FCFSBestFit{},
		Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM},
	}, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed %d of %d jobs", res.Completed, len(jobs))
	}
	return res
}

// TestPRSystemBuilds places the paper's three PRMs as disjoint PRRs on the
// LX110T and runs a workload: each dedicated PRR loads its module exactly
// once.
func TestPRSystemBuilds(t *testing.T) {
	dev, specs := paperSpecs(t, "XC5VLX110T")
	pr, err := BuildGroups(dev, specs, [][]int{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.PRRs) != 3 {
		t.Fatalf("PRRs = %d, want 3", len(pr.PRRs))
	}
	res := runFCFS(t, pr, roundRobin(len(specs), 60, 100*time.Microsecond, 500*time.Microsecond))
	if res.Reconfigs != 3 {
		t.Errorf("dedicated PRRs: %d reconfigs, want 3 (one first load per PRR)", res.Reconfigs)
	}
	if res.MakespanNS <= 0 {
		t.Errorf("degenerate makespan %d", res.MakespanNS)
	}
}

// TestPRBeatsFullReconfiguration: with right-sized dedicated PRRs, the PR
// system outperforms the full-reconfiguration baseline — the paper's core
// premise.
func TestPRBeatsFullReconfiguration(t *testing.T) {
	dev, specs := paperSpecs(t, "XC5VLX110T")
	jobs := roundRobin(len(specs), 90, 50*time.Microsecond, 500*time.Microsecond)

	pr, err := BuildGroups(dev, specs, [][]int{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	full := BuildFullReconfig(dev, specs)
	if len(full.PRRs) != 1 || full.PRRs[0].LoadBytes != dev.FullBitstreamBytes() {
		t.Fatalf("full-reconfiguration platform %+v, want one slot loading %d bytes", full.PRRs, dev.FullBitstreamBytes())
	}
	prRes := runFCFS(t, pr, jobs)
	fullRes := runFCFS(t, full, jobs)
	if prRes.MakespanNS >= fullRes.MakespanNS {
		t.Errorf("PR makespan %v should beat full reconfiguration %v",
			time.Duration(prRes.MakespanNS), time.Duration(fullRes.MakespanNS))
	}
	if fullRes.Reconfigs <= prRes.Reconfigs {
		t.Errorf("full-reconfig system should reconfigure more: %d vs %d", fullRes.Reconfigs, prRes.Reconfigs)
	}
}

// TestSharedPRRChurn: one shared PRR time-multiplexing all PRMs reconfigures
// on every job of a round-robin workload.
func TestSharedPRRChurn(t *testing.T) {
	dev, specs := paperSpecs(t, "XC6VLX75T")
	one, err := BuildShared(dev, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runFCFS(t, one, roundRobin(len(specs), 30, time.Millisecond, 500*time.Microsecond))
	if res.Reconfigs != 30 {
		t.Errorf("single shared PRR: %d reconfigs for 30 round-robin jobs, want 30", res.Reconfigs)
	}
}
