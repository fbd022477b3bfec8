package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
)

// benchMix is a near-saturation 2000-job mix on the two-slot test platform:
// busy enough that the ready queue and preemption paths are exercised,
// bounded enough that one run is milliseconds.
func benchMix(b *testing.B) []Job {
	mix := Mix{Jobs: 2000, Seed: 7, MeanGap: 250 * time.Microsecond,
		MeanExec: 200 * time.Microsecond, PriorityLevels: 3}
	jobs, err := mix.Generate(len(testPlatform().PRMs))
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// BenchmarkSimRun measures one replay of the bench mix. The "loop" variant
// is the steady-state event loop alone on a warmed engine arena — Result
// assembly (which allocates the caller-owned PerSlot summary) excluded —
// and is CI's zero-alloc gate: its committed baseline is 0 allocs/op, so
// any allocation creeping back onto the event path fails the bench
// comparison. The "full" variants run the public Run end to end, pooled
// engine included.
func BenchmarkSimRun(b *testing.B) {
	jobs := benchMix(b)

	b.Run("loop", func(b *testing.B) {
		cfg := testConfig(ReconfigAware{})
		en := new(engine)
		en.reset(cfg, jobs) // size the arena outside the timed loop
		en.pushArrivals()
		if err := en.loop(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
		perRun := en.events
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			en.reset(cfg, jobs)
			en.pushArrivals()
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
