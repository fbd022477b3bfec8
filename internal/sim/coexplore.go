package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/icap"
)

// DefaultMaxOrgs caps how many Pareto-front organizations one co-exploration
// scores when CoExploreConfig.MaxOrgs is zero.
const DefaultMaxOrgs = 32

// CoExploreConfig drives one explorer+scheduler co-exploration.
type CoExploreConfig struct {
	// Policies are scored in order; empty defaults to all built-ins.
	Policies []Policy
	// Mix is the job mix every organization is scored against. The job
	// list is generated once and shared, so rankings compare like with
	// like.
	Mix Mix
	// Estimator prices ICAP transfers for both the explorer and the runs.
	Estimator icap.Estimator
	// CaptureOverhead is passed through to each run's Config.
	CaptureOverhead time.Duration
	// SnapshotEvery is passed through to each run's Config.
	SnapshotEvery int
	// BB configures the branch-and-bound exploration of the design space.
	BB dse.BBOptions
	// MaxOrgs caps the number of front organizations scored (zero means
	// DefaultMaxOrgs); the front itself is always complete.
	MaxOrgs int
	// Workers caps the goroutines replaying front organizations against
	// the mix. Zero means GOMAXPROCS; 1 forces the sequential path. The
	// worker count never changes the ranked scores of a completed
	// co-exploration — only callback interleaving and wall-clock time.
	Workers int
}

// OrgScore is one (organization, policy) run of a co-exploration.
type OrgScore struct {
	// Org indexes the Pareto front returned alongside the scores.
	Org    int
	Groups [][]int
	Policy string
	Result Result
}

// coexPair tracks one (organization, policy) run of the sweep.
type coexPair struct {
	score OrgScore
	done  bool
	err   error
}

// CoExplore runs the branch-and-bound explorer to the exact Pareto front,
// realizes each front organization as a Platform, and scores it against one
// seeded job mix under each policy, fanning the organization replays out
// over a worker pool (CoExploreConfig.Workers). Scores come back ranked by
// (policy, p99 waiting time, front order); because every run is
// deterministic and the ranked order is a total key, a parallel sweep
// returns byte-identical scores to a sequential one. snap (may be nil)
// streams progress snapshots labelled with the organization and policy
// being simulated; score (may be nil) fires after each finished run, in
// completion order under parallel replay. Callbacks are never invoked
// concurrently. Either callback returning false stops the co-exploration
// early with the scores accumulated so far.
func CoExplore(ctx context.Context, dev *device.Device, specs []Spec, cfg CoExploreConfig,
	snap func(org int, policy string, s Snapshot) bool,
	score func(OrgScore) bool) ([]OrgScore, []dse.DesignPoint, dse.BBStats, error) {

	if len(specs) == 0 {
		return nil, nil, dse.BBStats{}, fmt.Errorf("sim: co-exploration needs PRM specs")
	}
	est := cfg.Estimator
	if est == nil {
		est = icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		for _, name := range PolicyNames() {
			p, _ := PolicyByName(name)
			policies = append(policies, p)
		}
	}

	prms := make([]dse.PRM, len(specs))
	for i, sp := range specs {
		prms[i] = dse.PRM{Name: sp.Name, Req: sp.Req}
	}
	e := &dse.Explorer{Device: dev, Estimator: est}
	front, stats, err := e.ExploreParetoBB(ctx, prms, cfg.BB)
	if err != nil {
		return nil, nil, stats, err
	}
	jobs, err := cfg.Mix.Generate(len(specs))
	if err != nil {
		return nil, front, stats, err
	}

	maxOrgs := cfg.MaxOrgs
	if maxOrgs <= 0 {
		maxOrgs = DefaultMaxOrgs
	}
	var orgs []int // front indexes to score, in front order
	for oi, dp := range front {
		if oi >= maxOrgs {
			break
		}
		if !dp.Feasible {
			continue // defensive: the front only carries feasible points
		}
		orgs = append(orgs, oi)
	}
	if len(orgs) == 0 {
		return nil, front, stats, nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(orgs) {
		workers = len(orgs)
	}

	// One internal cancel signal stops in-flight replays promptly when a
	// callback asks to stop or another worker fails.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	k := len(policies)
	pairs := make([]coexPair, len(orgs)*k)

	var (
		cb      sync.Mutex // serializes snap/score callbacks
		stopped atomic.Bool
		cursor  atomic.Int64
		wg      sync.WaitGroup
	)

	runOne := func(oi, pi int, plat Platform) {
		pair := &pairs[oi*k+pi]
		dp := front[orgs[oi]]
		pol := policies[pi]
		run := Config{
			Platform:        plat,
			Policy:          pol,
			Estimator:       est,
			CaptureOverhead: cfg.CaptureOverhead,
			SnapshotEvery:   cfg.SnapshotEvery,
		}
		var visit func(Snapshot) bool
		if snap != nil {
			o, name := orgs[oi], pol.Name()
			visit = func(s Snapshot) bool {
				cb.Lock()
				defer cb.Unlock()
				if stopped.Load() {
					return false
				}
				if !snap(o, name, s) {
					stopped.Store(true)
					cancel()
					return false
				}
				return true
			}
		}
		res, err := Run(runCtx, run, jobs, visit)
		if err != nil {
			// The internal cancel is a stop signal, not a failure: drop
			// the partial run. A caller cancellation stays an error.
			if !(stopped.Load() && errors.Is(err, context.Canceled) && ctx.Err() == nil) {
				pair.err = err
				stopped.Store(true)
				cancel()
			}
			return
		}
		pair.score = OrgScore{Org: orgs[oi], Groups: dp.Groups, Policy: pol.Name(), Result: res}
		pair.done = true
		if score != nil {
			cb.Lock()
			defer cb.Unlock()
			if stopped.Load() {
				return
			}
			if !score(pair.score) {
				stopped.Store(true)
				cancel()
			}
		}
	}

	// Organization-granular dispatch (like the DSE engine's chunked worker
	// pool, with chunk = one organization since each is k full replays):
	// one worker claims an organization, builds its platform once and scores
	// it under every policy.
	worker := func() {
		defer wg.Done()
		for {
			oi := int(cursor.Add(1)) - 1
			if oi >= len(orgs) || stopped.Load() || runCtx.Err() != nil {
				return
			}
			plat, err := BuildGroups(dev, specs, front[orgs[oi]].Groups)
			if err != nil {
				pairs[oi*k].err = fmt.Errorf("sim: realizing front organization %d: %w", orgs[oi], err)
				stopped.Store(true)
				cancel()
				return
			}
			for pi := 0; pi < k; pi++ {
				if stopped.Load() {
					return
				}
				runOne(oi, pi, plat)
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	// Compact completed runs in (front order, policy order) — the order the
	// sequential path appends in — then rank. RankByP99's key is total, so
	// the ranked output is independent of completion interleaving.
	var scores []OrgScore
	var firstErr error
	for i := range pairs {
		if pairs[i].done {
			scores = append(scores, pairs[i].score)
		}
		if pairs[i].err != nil && firstErr == nil {
			firstErr = pairs[i].err
		}
	}
	RankByP99(scores)
	if firstErr != nil {
		return scores, front, stats, firstErr
	}
	return scores, front, stats, nil
}

// RankByP99 orders scores by (policy, p99 waiting time, front order), the
// presentation order of a co-exploration: within each policy block the best
// organization for the job mix comes first. The key is total (Org is unique
// within a policy block), so any permutation of the same scores sorts to
// the same byte-identical order.
func RankByP99(scores []OrgScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Result.P99WaitNS != b.Result.P99WaitNS {
			return a.Result.P99WaitNS < b.Result.P99WaitNS
		}
		return a.Org < b.Org
	})
}
