package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
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
