package main

import (
	"hash/fnv"
	"math/rand/v2"
	"strconv"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// deviceName is the part every workload targets: a mid-size Virtex-6 whose
// fabric fits the 12-PRM fronts and the two-slot shared platforms.
const deviceName = "XC6VLX75T"

// request is one generated costd call; exactly one field is set.
type request struct {
	explore   *api.ExploreRequest
	simulate  *api.SimulateRequest
	prr       *api.PRRRequest
	bitstream *api.BitstreamRequest
}

// kind names the endpoint the request goes to.
func (r request) kind() string {
	switch {
	case r.explore != nil:
		return "explore"
	case r.simulate != nil:
		return "simulate"
	case r.prr != nil:
		return "prr"
	default:
		return "bitstream"
	}
}

// workload is one traffic mix. Client c's i-th request is a pure function of
// (seed, c, i), so a run's inputs depend on the seed alone and never on
// timing; the first warmup requests of each client are sent before the timed
// window.
type workload struct {
	name string
	// warmup is the fixed number of requests each client sends during set-up.
	warmup int
	// prewarm, when set, lists requests sent once during set-up, before the
	// warm-up, to fill costd's response cache.
	prewarm func(seed uint64) []request
	next    func(seed uint64, c, i int) request
	// costdArgs are extra costd flags.
	costdArgs []string
}

// sizes are the input sizes of the four workloads. fullSizes is the
// benchmark; the tests shrink them so a run finishes in about a second.
type sizes struct {
	frontPRMs, frontSigs int // explore-front: DuplicatePRMs(n, k) shapes
	streamPRMs           int // explore-stream: SyntheticPRMs(n) shapes
	coexN, coexJobs      int // coexplore-saturated: synthetic_n and mix size
	coexPool             int // coexplore-saturated: mix seeds cycled through
	batchItems           int // serve-mixed: items per prr/bitstream batch
	batchPool            int // serve-mixed: pooled variants per batch endpoint
	lightN, lightJobs    int // serve-mixed: light simulation PRMs and mix size
	cacheEntries         int // serve-mixed: costd -cache
}

var fullSizes = sizes{
	frontPRMs: 12, frontSigs: 3,
	streamPRMs: 7,
	coexN:      6, coexJobs: 300, coexPool: 64,
	batchItems: 8, batchPool: 16,
	lightN: 4, lightJobs: 200,
	cacheEntries: 512,
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"explore-front", "explore-stream", "coexplore-saturated", "serve-mixed"}

// workloads builds the four traffic mixes at the given sizes.
func workloads(sz sizes) map[string]workload {
	return map[string]workload{
		// front_only explores of 12 PRMs over 3 signatures with fresh
		// per-signature deltas: every canonical key is new (no cache hits)
		// while the branch-and-bound work stays constant, so dse symmetry,
		// memo and expansion do the work and service handles one miss.
		"explore-front": {
			name:   "explore-front",
			warmup: 4,
			next: func(seed uint64, c, i int) request {
				rng := rngFor(seed, "explore-front", c, i)
				base := dse.DuplicatePRMs(sz.frontPRMs, sz.frontSigs)
				deltas := make([]core.Requirements, sz.frontSigs)
				for s := range deltas {
					deltas[s] = reqDelta(rng, 64)
				}
				prms := make([]api.PRM, len(base))
				for k, p := range base {
					// DuplicatePRMs gives module k shape k*sigs/n; shifting
					// each shape by one delta keeps the duplicates exact.
					prms[k] = api.PRM{Name: p.Name, Req: api.RequirementsFrom(addReq(p.Req, deltas[k*sz.frontSigs/len(base)]))}
				}
				rng.Shuffle(len(prms), func(a, b int) { prms[a], prms[b] = prms[b], prms[a] })
				return request{explore: &api.ExploreRequest{
					Device: deviceName, PRMs: prms, FrontOnly: true,
					Options: api.ExploreOptions{Workers: 1},
				}}
			},
		},
		// Streamed explores of 7 all-distinct PRMs, one NDJSON line per priced
		// partition: memo and symmetry are bypassed, every pricing runs core
		// and floorplan, and the stream path (encode, flush, client decode)
		// dominates.
		"explore-stream": {
			name:   "explore-stream",
			warmup: 4,
			next: func(seed uint64, c, i int) request {
				rng := rngFor(seed, "explore-stream", c, i)
				base := dse.SyntheticPRMs(sz.streamPRMs)
				prms := make([]api.PRM, len(base))
				for k, p := range base {
					prms[k] = api.PRM{Name: p.Name, Req: api.RequirementsFrom(addReq(p.Req, reqDelta(rng, 64)))}
				}
				return request{explore: &api.ExploreRequest{
					Device: deviceName, PRMs: prms,
					Options: api.ExploreOptions{Workers: 1},
				}}
			},
		},
		// Streamed co-explorations on saturated mixes: the ICAP-bound
		// platform backs up, ready queues reach hundreds and the priority
		// and reconfig policies' Decide dominates; the exact front is cheap.
		"coexplore-saturated": {
			name:   "coexplore-saturated",
			warmup: 2,
			next: func(seed uint64, c, i int) request {
				pool := mixSeeds(seed, sz.coexPool)
				return request{simulate: &api.SimulateRequest{
					Device: deviceName, SyntheticN: sz.coexN, CoExplore: true,
					Policies: sim.PolicyNames(),
					Mix: api.SimMix{
						Jobs: sz.coexJobs, Seed: pool[(i*2+c)%len(pool)], Arrival: "uniform",
						MeanGapUS: 300, MeanExecUS: 300, PriorityLevels: 3,
					},
					Options: api.ExploreOptions{Workers: 1},
				}}
			},
		},
		// Cached prr/bitstream batches beside cache-missing ones and light
		// simulations: service does most of the work (cache reads beside
		// writes and evictions), and sim runs unsaturated (queue <= 2), the
		// guard for any policy change tuned on the saturated workload.
		"serve-mixed": {
			name:      "serve-mixed",
			warmup:    16,
			costdArgs: []string{"-cache", strconv.Itoa(sz.cacheEntries)},
			prewarm: func(seed uint64) []request {
				var reqs []request
				for v := 0; v < sz.batchPool; v++ {
					reqs = append(reqs, pooledPRR(seed, v, sz), pooledBitstream(seed, v, sz))
				}
				return reqs
			},
			next: func(seed uint64, c, i int) request {
				// Each client repeats a cycle of 8: five pooled batches (cache
				// hits), one unique prr batch (a miss that fills the LRU and
				// then evicts) and two light simulation streams. The fixed
				// shares put p50 in the batch mode and p95 in the sim mode.
				cycle, pos := i/8, i%8
				switch {
				case pos < 5:
					k := cycle*5 + pos
					v := (k/2 + 3*c) % sz.batchPool
					if k%2 == 0 {
						return pooledPRR(seed, v, sz)
					}
					return pooledBitstream(seed, v, sz)
				case pos == 5:
					return request{prr: prrBatch(rngFor(seed, "serve-mixed-unique", c, i), sz.batchItems)}
				default:
					rng := rngFor(seed, "serve-mixed-sim", c, i)
					return request{simulate: &api.SimulateRequest{
						Device: deviceName, SyntheticN: sz.lightN, Slots: 2, Policy: "reconfig",
						Mix: api.SimMix{
							Jobs: sz.lightJobs, Seed: rng.Uint64() | 1, Arrival: "uniform",
							MeanGapUS: 1000, MeanExecUS: 300, PriorityLevels: 3,
						},
					}}
				}
			},
		},
	}
}

// rngFor returns the deterministic stream behind one generated request.
func rngFor(seed uint64, salt string, c, i int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return rand.New(rand.NewPCG(seed^h.Sum64(), uint64(c)<<32|uint64(uint32(i))))
}

// mixSeeds is coexplore-saturated's pool. Cycling a fixed pool, rather than
// drawing a fresh mix per request, keeps the per-run latency distribution
// steady while every request still runs the engine (streams are uncached).
func mixSeeds(seed uint64, n int) []uint64 {
	rng := rngFor(seed, "coexplore-pool", 0, 0)
	out := make([]uint64, n)
	for k := range out {
		out[k] = rng.Uint64() | 1
	}
	return out
}

// reqDelta draws a requirement shift below limit per field. LUT and FF
// shifts never exceed the pair shift, so shifted requirements stay valid
// (pairs cover both LUTs and FFs).
func reqDelta(rng *rand.Rand, limit int) core.Requirements {
	p := rng.IntN(limit)
	return core.Requirements{LUTFFPairs: p, LUTs: min(rng.IntN(limit), p), FFs: min(rng.IntN(limit), p)}
}

func addReq(a, b core.Requirements) core.Requirements {
	a.LUTFFPairs += b.LUTFFPairs
	a.LUTs += b.LUTs
	a.FFs += b.FFs
	a.DSPs += b.DSPs
	a.BRAMs += b.BRAMs
	return a
}

// prrBatch draws PRMs around the synthetic templates, all placeable on
// deviceName.
func prrBatch(rng *rand.Rand, items int) *api.PRRRequest {
	templates := dse.SyntheticPRMs(4)
	req := &api.PRRRequest{Device: deviceName, PRMs: make([]api.PRM, items)}
	for k := range req.PRMs {
		t := templates[rng.IntN(len(templates))].Req
		req.PRMs[k] = api.PRM{Name: "P" + strconv.Itoa(k), Req: api.RequirementsFrom(addReq(t, reqDelta(rng, 1024)))}
	}
	return req
}

func pooledPRR(seed uint64, v int, sz sizes) request {
	return request{prr: prrBatch(rngFor(seed, "serve-mixed-prr-pool", 0, v), sz.batchItems)}
}

func pooledBitstream(seed uint64, v int, sz sizes) request {
	rng := rngFor(seed, "serve-mixed-bitstream-pool", 0, v)
	req := &api.BitstreamRequest{Device: deviceName, Items: make([]api.Organization, sz.batchItems)}
	for k := range req.Items {
		req.Items[k] = api.Organization{
			H: 1 + rng.IntN(4), WCLB: 1 + rng.IntN(24), WDSP: rng.IntN(3), WBRAM: rng.IntN(3),
		}
	}
	return request{bitstream: req}
}
