package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// orderCheck wraps a policy and fails the test unless every View it is
// handed lists Ready strictly in (priority desc, arrival, job ID) order.
// Strictness also rules out a job queued twice: its two entries would share
// all three keys.
type orderCheck struct {
	Policy
	t     *testing.T
	calls int
}

func (p *orderCheck) Decide(v *View) (Action, bool) {
	p.calls++
	for i := 1; i < len(v.Ready); i++ {
		q, r := v.Ready[i-1], v.Ready[i]
		before := q.Priority > r.Priority ||
			q.Priority == r.Priority && (q.Arrival < r.Arrival || q.Arrival == r.Arrival && q.Job < r.Job)
		if !before {
			p.t.Fatalf("at %v Ready[%d] %+v does not sort before Ready[%d] %+v", v.Now, i-1, q, i, r)
		}
	}
	return p.Policy.Decide(v)
}

// sharedTestPlatform is slots interchangeable 100-tile slots hosting every
// one of prms PRM classes, priced as in testPlatform.
func sharedTestPlatform(slots, prms int) Platform {
	var plat Platform
	compat := make([]int, slots)
	for s := range compat {
		plat.PRRs = append(plat.PRRs, PRR{Name: fmt.Sprintf("slot%d", s), Tiles: 100,
			LoadBytes: 100_000, SaveBytes: 50_000, RestoreBytes: 110_000})
		compat[s] = s
	}
	for m := 0; m < prms; m++ {
		plat.PRMs = append(plat.PRMs, PRM{Name: fmt.Sprintf("M%d", m), Compat: compat})
	}
	return plat
}

// TestReadyOrderAndPhysicalInvariants replays randomized mixes (1-3 shared
// slots; uniform, bursty and simultaneous arrivals; 1-4 priority levels;
// job IDs shuffled against arrival order) under every policy. Each Decide
// must see the ready queue in priority order, and each Result must be
// physically possible: a slot computes or transfers, never both, within the
// makespan; the ICAP's busy time is the slots' transfer time summed; every
// job completes; and every preemption starts a reconfiguration.
func TestReadyOrderAndPhysicalInvariants(t *testing.T) {
	const prms = 3
	rng := rand.New(rand.NewPCG(1, 2))
	runs := 0
	for slots := 1; slots <= 3; slots++ {
		plat := sharedTestPlatform(slots, prms)
		for _, arrival := range []Arrival{ArrivalUniform, ArrivalBursty, ArrivalSimultaneous} {
			for levels := 1; levels <= 4; levels++ {
				for rep := 0; rep < 10; rep++ {
					mix := Mix{
						Jobs: 60 + rng.IntN(90), Seed: rng.Uint64() | 1, Arrival: arrival,
						MeanGap:        time.Duration(20+rng.IntN(200)) * time.Microsecond,
						MeanExec:       time.Duration(100+rng.IntN(400)) * time.Microsecond,
						PriorityLevels: levels,
					}
					jobs, err := mix.Generate(prms)
					if err != nil {
						t.Fatal(err)
					}
					for i, id := range rng.Perm(len(jobs)) {
						jobs[i].ID = id
					}
					for _, name := range PolicyNames() {
						pol, _ := PolicyByName(name)
						check := &orderCheck{Policy: pol, t: t}
						res, err := Run(context.Background(),
							Config{Platform: plat, Policy: check, Estimator: nsPerByte(1)}, jobs, nil)
						where := fmt.Sprintf("%s, %d slots, %+v", name, slots, mix)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						if check.calls == 0 {
							t.Fatalf("%s: the policy was never asked", where)
						}
						checkPhysical(t, where, res)
						runs++
					}
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}

func checkPhysical(t *testing.T, where string, res Result) {
	t.Helper()
	if res.Completed != res.Jobs {
		t.Errorf("%s: completed %d of %d jobs", where, res.Completed, res.Jobs)
	}
	if res.Preemptions > res.Reconfigs {
		t.Errorf("%s: %d preemptions but %d reconfigurations", where, res.Preemptions, res.Reconfigs)
	}
	var icap int64
	for _, sl := range res.PerSlot {
		icap += sl.ICAPNS
		if sl.BusyNS+sl.ICAPNS > res.MakespanNS {
			t.Errorf("%s: slot %s busy %d ns + ICAP %d ns exceeds the %d ns makespan",
				where, sl.Name, sl.BusyNS, sl.ICAPNS, res.MakespanNS)
		}
	}
	if icap != res.ICAPBusyNS || res.ICAPBusyNS > res.MakespanNS {
		t.Errorf("%s: slots transfer %d ns, ICAP busy %d ns, makespan %d ns",
			where, icap, res.ICAPBusyNS, res.MakespanNS)
	}
}

// TestSelectNthMatchesSort: on random, sorted, reversed, constant and
// organ-pipe ledgers with many repeated values, selectNth puts the sorted
// order's k-th value at k, nothing larger before it and nothing smaller
// after it, as engine.result's p99 and max waits need.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(300)
		s := make([]time.Duration, n)
		spread := 1 + rng.IntN(2*n)
		for i := range s {
			switch trial % 5 {
			case 0:
				s[i] = time.Duration(rng.IntN(spread))
			case 1:
				s[i] = time.Duration(i / (1 + trial%3))
			case 2:
				s[i] = time.Duration(n - i)
			case 3:
				s[i] = 7
			case 4:
				s[i] = time.Duration(min(i, n-i))
			}
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		k := rng.IntN(n)
		if trial%2 == 0 {
			k = min(n*99/100, n-1)
		}
		selectNth(s, k)
		if s[k] != sorted[k] {
			t.Fatalf("trial %d: s[%d] = %v, the sort has %v", trial, k, s[k], sorted[k])
		}
		if slices.Max(s[:k+1]) != s[k] || slices.Min(s[k:]) != s[k] {
			t.Fatalf("trial %d: s[%d] = %v does not split %v", trial, k, s[k], s)
		}
		if got := slices.Max(s[k:]); got != sorted[n-1] {
			t.Fatalf("trial %d: max after k %v, the sort's max %v", trial, got, sorted[n-1])
		}
		if slices.Sort(s); !slices.Equal(s, sorted) {
			t.Fatalf("trial %d: selectNth changed the multiset", trial)
		}
	}
}

// TestResultWaitsMatchSort: on randomized mixes under every policy,
// result's p99 and max waits are what a sort of the wait ledger gives, and
// the ledger keeps its multiset.
func TestResultWaitsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	en := new(engine)
	for trial := 0; trial < 60; trial++ {
		mix := Mix{Jobs: 1 + rng.IntN(400), Seed: rng.Uint64() | 1,
			Arrival:        []Arrival{ArrivalUniform, ArrivalBursty, ArrivalSimultaneous}[rng.IntN(3)],
			MeanGap:        time.Duration(20+rng.IntN(400)) * time.Microsecond,
			MeanExec:       time.Duration(100+rng.IntN(400)) * time.Microsecond,
			PriorityLevels: 1 + rng.IntN(4)}
		jobs, err := mix.Generate(3)
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := PolicyByName(PolicyNames()[trial%3])
		en.reset(Config{Platform: sharedTestPlatform(1+rng.IntN(3), 3), Policy: pol, Estimator: nsPerByte(1)}, jobs)
		if err := en.loop(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		sorted := slices.Clone(en.waits)
		slices.Sort(sorted)
		res := en.result()
		idx := min(len(sorted)*99/100, len(sorted)-1)
		if res.P99WaitNS != int64(sorted[idx]) || res.MaxWaitNS != int64(sorted[len(sorted)-1]) {
			t.Fatalf("trial %d (%s, %+v): p99 %d max %d, the sorted ledger has %d and %d",
				trial, pol.Name(), mix, res.P99WaitNS, res.MaxWaitNS, sorted[idx], sorted[len(sorted)-1])
		}
		if slices.Sort(en.waits); !slices.Equal(en.waits, sorted) {
			t.Fatalf("trial %d: result changed the wait ledger's multiset", trial)
		}
	}
}
