package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
)

// benchMix is a near-saturation 2000-job mix on the two-slot test platform:
// busy enough that the ready queue and preemption paths are exercised,
// bounded enough that one run is milliseconds.
func benchMix(tb testing.TB) []Job {
	mix := Mix{Jobs: 2000, Seed: 7, MeanGap: 250 * time.Microsecond,
		MeanExec: 200 * time.Microsecond, PriorityLevels: 3}
	jobs, err := mix.Generate(len(testPlatform().PRMs))
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// BenchmarkSimRun measures one replay of the bench mix. The "loop" variant
// is the steady-state event loop alone on a warmed engine arena — Result
// assembly (which allocates the caller-owned PerSlot summary) excluded —
// and is CI's zero-alloc gate: its committed baseline is 0 allocs/op, so
// any allocation creeping back onto the event path fails the bench
// comparison. Its events/sec counts handled events: one per arrival, per
// load or restore, and per completion. The "full" variants run the public
// Run end to end, pooled engine included.
func BenchmarkSimRun(b *testing.B) {
	jobs := benchMix(b)

	b.Run("loop", func(b *testing.B) {
		cfg := testConfig(ReconfigAware{})
		en := new(engine)
		en.reset(cfg, jobs) // size the arena outside the timed loop
		if err := en.loop(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
		perRun := en.events
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			en.reset(cfg, jobs)
			if err := en.loop(context.Background(), nil); err != nil {
				b.Fatal(err)
			}
			if en.completed != len(jobs) {
				b.Fatalf("completed %d of %d", en.completed, len(jobs))
			}
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(perRun)*float64(b.N)/sec, "events/sec")
		}
	})

	for _, name := range PolicyNames() {
		pol, _ := PolicyByName(name)
		b.Run("full/"+name, func(b *testing.B) {
			cfg := testConfig(pol)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg, jobs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoExplore sweeps a duplicated paper-scale front under all three
// policies, sequentially and with the full worker pool. On multi-core
// runners "par" tracks the core count; the bench gate only compares each
// variant against its own baseline.
func BenchmarkCoExplore(b *testing.B) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		b.Fatal(err)
	}
	var specs []Spec
	for _, p := range dse.SyntheticPRMs(6) {
		specs = append(specs, Spec{Name: p.Name, Req: p.Req})
	}
	base := CoExploreConfig{
		Mix: Mix{Jobs: 200, Seed: 7, MeanGap: 80 * time.Microsecond,
			MeanExec: 300 * time.Microsecond, PriorityLevels: 3},
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := base
			cfg.Workers = v.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scores, _, _, err := CoExplore(context.Background(), dev, specs, cfg, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(scores) == 0 {
					b.Fatal("no scores")
				}
			}
		})
	}
}

// BenchmarkScoreFront is the per-request replay work of a costd
// co-exploration once the front comes from its cache: every organization of
// the exact front of SyntheticPRMs(6) on XC6VLX75T replayed under all three
// policies against a saturated 300-job mix (300 µs mean gap and execution,
// three priority levels), on one worker, with costd's default snapshot
// cadence and a visitor taking every snapshot. The front is explored and
// its platforms built (BuildFront) once, outside the timed loop, as costd
// caches both; BenchmarkCoExplore times the explore and the build too.
func BenchmarkScoreFront(b *testing.B) {
	dev, err := device.Lookup("XC6VLX75T")
	if err != nil {
		b.Fatal(err)
	}
	prms := dse.SyntheticPRMs(6)
	specs := make([]Spec, len(prms))
	for i, p := range prms {
		specs[i] = Spec{Name: p.Name, Req: p.Req}
	}
	e := &dse.Explorer{Device: dev, Estimator: estimatorOrDefault(nil)}
	front, _, err := e.ExploreParetoBB(context.Background(), prms, dse.BBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	plats, err := BuildFront(dev, specs, front)
	if err != nil {
		b.Fatal(err)
	}
	mix := Mix{Jobs: 300, Seed: 1, MeanGap: 300 * time.Microsecond,
		MeanExec: 300 * time.Microsecond, PriorityLevels: 3}
	cfg := CoExploreConfig{Mix: mix, SnapshotEvery: mix.Jobs / 20, Workers: 1}
	snaps := 0
	snap := func(int, string, Snapshot) bool { snaps++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := ScoreFront(context.Background(), plats, specs, front, cfg, snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(scores) == 0 {
			b.Fatal("no scores")
		}
	}
	b.ReportMetric(float64(snaps)/float64(b.N), "snapshots/op")
}

// timedPolicy wraps a policy and accounts its Decide calls and their time.
type timedPolicy struct {
	Policy
	calls int64
	ns    time.Duration
}

func (p *timedPolicy) Decide(v *View) (Action, bool) {
	t0 := time.Now()
	act, ok := p.Policy.Decide(v)
	p.ns += time.Since(t0)
	p.calls++
	return act, ok
}

// BenchmarkReadyDepth sweeps the ready-queue depth: q jobs over three
// priority levels arrive at once on the two-slot test platform, so the
// queue starts q deep and drains. It reports ns per event (the whole run,
// ready-queue inserts included) and ns per Decide (time inside the policy)
// for each policy. priority and reconfig test the head of each slot set
// (one set on this platform) and stop below the weakest running task's
// priority, so their Decide stays flat in q; fcfs compares the level heads,
// O(levels · log q). What still grows with q is the insert: the burst of q
// arrivals at t=0 each move the part of the queue after their level's tail.
func BenchmarkReadyDepth(b *testing.B) {
	for _, q := range []int{10, 100, 1000, 10000} {
		mix := Mix{Jobs: q, Seed: 11, Arrival: ArrivalSimultaneous,
			MeanExec: 200 * time.Microsecond, PriorityLevels: 3}
		jobs, err := mix.Generate(len(testPlatform().PRMs))
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range PolicyNames() {
			b.Run(fmt.Sprintf("q=%d/%s", q, name), func(b *testing.B) {
				pol, _ := PolicyByName(name)
				timed := &timedPolicy{Policy: pol}
				cfg := testConfig(timed)
				run := func(en *engine) {
					en.reset(cfg, jobs)
					if err := en.loop(context.Background(), nil); err != nil {
						b.Fatal(err)
					}
				}
				en := new(engine)
				run(en) // size the arena outside the timed loop
				timed.calls, timed.ns = 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(en)
				}
				b.StopTimer()
				n := float64(b.N)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(en.events)), "ns/event")
				b.ReportMetric(float64(timed.ns.Nanoseconds())/float64(timed.calls), "ns/decide")
			})
		}
	}
}
