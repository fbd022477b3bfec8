// Package api defines the wire types of the costd cost-model service: the
// JSON request/response bodies of /v1/devices, /v1/prr, /v1/bitstream and
// /v1/explore, and the canonical request hashing that the server's response
// cache and its coalescing of in-flight computes key on. The server
// (internal/service) and the typed client (internal/client) share these
// types, so a field added here reaches both ends at once.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
)

// Batch limits: requests beyond these are rejected with 400 before any model
// runs, bounding per-request work. MaxExplorePRMs bounds Bell(n): Bell(12)
// is ~4.2M partitions, the most a single stream is allowed to walk.
// MaxExploreWorkers bounds options.workers, the goroutines (and subtree
// jobs) one explore or co-exploration may start.
const (
	MaxBatchItems     = 1024
	MaxExplorePRMs    = 12
	MaxExploreWorkers = 64
)

// Requirements is the wire form of a PRM's resource needs (Table I).
type Requirements struct {
	LUTFFPairs int `json:"lut_ff_pairs"`
	LUTs       int `json:"luts"`
	FFs        int `json:"ffs"`
	DSPs       int `json:"dsps,omitempty"`
	BRAMs      int `json:"brams,omitempty"`
}

// Core converts to the model's requirement type.
func (r Requirements) Core() core.Requirements {
	return core.Requirements{
		LUTFFPairs: r.LUTFFPairs, LUTs: r.LUTs, FFs: r.FFs,
		DSPs: r.DSPs, BRAMs: r.BRAMs,
	}
}

// RequirementsFrom converts from the model's requirement type.
func RequirementsFrom(r core.Requirements) Requirements {
	return Requirements{
		LUTFFPairs: r.LUTFFPairs, LUTs: r.LUTs, FFs: r.FFs,
		DSPs: r.DSPs, BRAMs: r.BRAMs,
	}
}

// PRM names one module in a request.
type PRM struct {
	Name string       `json:"name,omitempty"`
	Req  Requirements `json:"req"`
}

// Region is a placed PRR window on the fabric.
type Region struct {
	Row int `json:"row"`
	Col int `json:"col"`
	H   int `json:"h"`
	W   int `json:"w"`
}

// Organization is a PRR's size/organization: the model's H and per-kind
// column counts (Eqs. (2)–(7)). In /v1/bitstream requests only the four
// counts matter; in /v1/prr responses Region reports the placement.
type Organization struct {
	H      int     `json:"h"`
	WCLB   int     `json:"w_clb"`
	WDSP   int     `json:"w_dsp,omitempty"`
	WBRAM  int     `json:"w_bram,omitempty"`
	Region *Region `json:"region,omitempty"`
}

// Core converts to the model's organization (Region dropped: it is an
// output, not an input, of the bitstream model).
func (o Organization) Core() core.Organization {
	return core.Organization{H: o.H, WCLB: o.WCLB, WDSP: o.WDSP, WBRAM: o.WBRAM}
}

// Availability is the PRR's resource capacity (Eqs. (8)–(12)).
type Availability struct {
	CLBs  int `json:"clbs"`
	FFs   int `json:"ffs"`
	LUTs  int `json:"luts"`
	DSPs  int `json:"dsps"`
	BRAMs int `json:"brams"`
}

// Utilization is the per-resource RU percentage (Eqs. (13)–(17)).
type Utilization struct {
	CLB  float64 `json:"clb"`
	FF   float64 `json:"ff"`
	LUT  float64 `json:"lut"`
	DSP  float64 `json:"dsp"`
	BRAM float64 `json:"bram"`
}

// DevicesResponse is the GET /v1/devices body.
type DevicesResponse struct {
	Devices []device.Descriptor `json:"devices"`
}

// PRRRequest is the POST /v1/prr body: size every PRM independently on the
// device (the paper's Fig. 1 flow, Eqs. (1)–(17)).
type PRRRequest struct {
	Device string `json:"device"`
	PRMs   []PRM  `json:"prms"`
}

// Validate bounds the batch before any model runs.
func (r *PRRRequest) Validate() error {
	if r.Device == "" {
		return fmt.Errorf("api: prr request needs a device")
	}
	if len(r.PRMs) == 0 {
		return fmt.Errorf("api: prr request has no PRMs")
	}
	if len(r.PRMs) > MaxBatchItems {
		return fmt.Errorf("api: prr batch of %d exceeds the %d-item limit", len(r.PRMs), MaxBatchItems)
	}
	return nil
}

// PRRResult is one PRM's outcome. A PRM whose requirements are invalid or
// that has no feasible PRR on the device reports OK=false with the model's
// error; the batch as a whole still succeeds.
type PRRResult struct {
	Name  string        `json:"name,omitempty"`
	OK    bool          `json:"ok"`
	Error string        `json:"error,omitempty"`
	Org   *Organization `json:"org,omitempty"`
	Avail *Availability `json:"avail,omitempty"`
	RU    *Utilization  `json:"ru,omitempty"`
	// SizeTiles is PRR_size = H x W (Eq. (7)).
	SizeTiles int `json:"size_tiles,omitempty"`
}

// PRRResponse is the POST /v1/prr response: one result per request PRM, in
// request order.
type PRRResponse struct {
	Device  string      `json:"device"`
	Results []PRRResult `json:"results"`
}

// BitstreamRequest is the POST /v1/bitstream body: price partial bitstreams
// for PRR organizations on the device's family constants (Eqs. (18)–(23)).
type BitstreamRequest struct {
	Device string         `json:"device"`
	Items  []Organization `json:"items"`
}

// Validate bounds the batch before any model runs.
func (r *BitstreamRequest) Validate() error {
	if r.Device == "" {
		return fmt.Errorf("api: bitstream request needs a device")
	}
	if len(r.Items) == 0 {
		return fmt.Errorf("api: bitstream request has no items")
	}
	if len(r.Items) > MaxBatchItems {
		return fmt.Errorf("api: bitstream batch of %d exceeds the %d-item limit", len(r.Items), MaxBatchItems)
	}
	return nil
}

// BitstreamResult is one organization's bitstream cost.
type BitstreamResult struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// SizeWords / SizeBytes are Eq. (18) in configuration words and bytes.
	SizeWords int `json:"size_words,omitempty"`
	SizeBytes int `json:"size_bytes,omitempty"`
	// ConfigWordsPerRow is NCW_row (Eq. (19)); BRAMInitWordsPerRow is
	// NDW_BRAM (Eq. (23)).
	ConfigWordsPerRow   int `json:"config_words_per_row,omitempty"`
	BRAMInitWordsPerRow int `json:"bram_init_words_per_row,omitempty"`
	// ReconfigNS estimates the reconfiguration time over the server's
	// configuration port and storage medium, in nanoseconds.
	ReconfigNS int64 `json:"reconfig_ns,omitempty"`
}

// BitstreamResponse is the POST /v1/bitstream response, in request order.
type BitstreamResponse struct {
	Device  string            `json:"device"`
	Results []BitstreamResult `json:"results"`
}

// ExploreOptions tunes the branch-and-bound engine behind /v1/explore.
type ExploreOptions struct {
	// Workers caps engine goroutines — both the branch-and-bound search
	// workers and, for co-explorations, the pool replaying front
	// organizations against the mix; 0 means GOMAXPROCS, and anything
	// negative or above MaxExploreWorkers is a 400. The worker count never
	// changes the front, the streamed points or the ranked scores. Every
	// subtree job prunes against the exploration's one front, so with
	// dominance pruning on and more than one worker, the work counters in
	// the stats (evaluated, pruned, collapsed, pricings, memo) follow how
	// the workers were scheduled; at one worker they are a function of the
	// request.
	Workers int `json:"workers,omitempty"`
	// DisableDominancePrune turns off dominance pruning (the default prunes).
	DisableDominancePrune bool `json:"disable_dominance_prune,omitempty"`
	// DisableFitPrune turns off the monotone fit bound.
	DisableFitPrune bool `json:"disable_fit_prune,omitempty"`
	// Symmetry selects the interchangeable-PRM collapse: "" or "auto"
	// collapses whenever two PRMs share a requirement signature (the expanded
	// front is always identical to the flat exploration's), "off" forces the
	// full partition walk.
	Symmetry string `json:"symmetry,omitempty"`
	// Memo selects the composition-keyed group-pricing memo: "" or "auto"
	// memoizes every exploration, within a fixed entry budget; "off" prices
	// every tree edge with the cost models. The front is identical either way;
	// only the work to compute it changes.
	Memo string `json:"memo,omitempty"`
}

// ExploreRequest is the POST /v1/explore body. Exactly one of PRMs and
// SyntheticN picks the workload; the response is an NDJSON stream of
// ExploreEvent lines ending with a Done event.
type ExploreRequest struct {
	Device string `json:"device"`
	PRMs   []PRM  `json:"prms,omitempty"`
	// SyntheticN explores the deterministic n-module synthetic workload
	// instead of explicit PRMs (load generation, benchmarking).
	SyntheticN int `json:"synthetic_n,omitempty"`
	// FrontOnly suppresses the per-point stream: only the final Done event
	// (Pareto front + stats) is sent.
	FrontOnly bool           `json:"front_only,omitempty"`
	Options   ExploreOptions `json:"options,omitempty"`
}

// validate bounds the engine options shared by explore and simulate.
func (o *ExploreOptions) validate() error {
	if o.Workers < 0 || o.Workers > MaxExploreWorkers {
		return fmt.Errorf("api: %d workers outside the 0-%d limit", o.Workers, MaxExploreWorkers)
	}
	if s := o.Symmetry; s != "" && s != "auto" && s != "off" {
		return fmt.Errorf("api: unknown symmetry mode %q (want auto or off)", s)
	}
	if m := o.Memo; m != "" && m != "auto" && m != "off" {
		return fmt.Errorf("api: unknown memo mode %q (want auto or off)", m)
	}
	return nil
}

// Validate bounds the exploration before the engine starts.
func (r *ExploreRequest) Validate() error {
	if r.Device == "" {
		return fmt.Errorf("api: explore request needs a device")
	}
	if r.SyntheticN < 0 {
		return fmt.Errorf("api: negative synthetic_n")
	}
	if (len(r.PRMs) == 0) == (r.SyntheticN == 0) {
		return fmt.Errorf("api: explore request needs exactly one of prms and synthetic_n")
	}
	if n := max(len(r.PRMs), r.SyntheticN); n > MaxExplorePRMs {
		return fmt.Errorf("api: explore over %d PRMs exceeds the %d-PRM limit", n, MaxExplorePRMs)
	}
	return r.Options.validate()
}

// reqLess orders requirement signatures by their field tuple, mirroring the
// engine's equivalence-class ordering.
func reqLess(a, b Requirements) bool {
	if a.LUTFFPairs != b.LUTFFPairs {
		return a.LUTFFPairs < b.LUTFFPairs
	}
	if a.LUTs != b.LUTs {
		return a.LUTs < b.LUTs
	}
	if a.FFs != b.FFs {
		return a.FFs < b.FFs
	}
	if a.DSPs != b.DSPs {
		return a.DSPs < b.DSPs
	}
	return a.BRAMs < b.BRAMs
}

// Canonicalized returns a copy of the request with explicit PRMs brought to
// canonical order: unnamed PRMs first receive their positional default name
// ("M%d" by original index, the same default the explore handler assigns),
// then the list is sorted by requirement signature with the name as the
// final tie-break. Any permutation of the same PRM multiset therefore
// marshals identically, so CanonicalKey collides on purpose and permuted
// requests share one cache entry and one in-flight computation. The handler
// prices the canonicalized order, which is well-defined because response
// groups reference PRMs by name, and which also lays same-signature PRMs out
// contiguously — the layout where the engine's symmetry collapse is
// strongest. Synthetic requests have no PRM list and are returned as a plain
// copy.
func (r *ExploreRequest) Canonicalized() *ExploreRequest {
	out := *r
	if len(r.PRMs) == 0 {
		return &out
	}
	out.PRMs = make([]PRM, len(r.PRMs))
	copy(out.PRMs, r.PRMs)
	for i := range out.PRMs {
		if out.PRMs[i].Name == "" {
			out.PRMs[i].Name = fmt.Sprintf("M%d", i)
		}
	}
	sort.SliceStable(out.PRMs, func(i, j int) bool {
		a, b := &out.PRMs[i], &out.PRMs[j]
		if a.Req != b.Req {
			return reqLess(a.Req, b.Req)
		}
		return a.Name < b.Name
	})
	return &out
}

// DesignPoint is one priced PR partitioning on the wire.
type DesignPoint struct {
	// Groups lists PRM names per shared PRR.
	Groups        [][]string `json:"groups"`
	Feasible      bool       `json:"feasible"`
	Infeasibility string     `json:"infeasibility,omitempty"`

	TotalTiles          int     `json:"total_tiles,omitempty"`
	MaxBitstreamBytes   int     `json:"max_bitstream_bytes,omitempty"`
	TotalBitstreamBytes int     `json:"total_bitstream_bytes,omitempty"`
	WorstReconfigNS     int64   `json:"worst_reconfig_ns,omitempty"`
	MinRU               float64 `json:"min_ru,omitempty"`
}

// ExploreStats mirrors the engine's BBStats.
type ExploreStats struct {
	Partitions      int64 `json:"partitions"`
	Evaluated       int64 `json:"evaluated"`
	PrunedFit       int64 `json:"pruned_fit"`
	PrunedDominated int64 `json:"pruned_dominated"`
	GroupPricings   int64 `json:"group_pricings"`
	FrontSize       int   `json:"front_size"`
	// Classes is the number of distinct PRM requirement signatures;
	// OrbitsCollapsed counts partitions skipped as symmetric images of
	// evaluated representatives (zero with symmetry off or all-distinct PRMs).
	Classes         int   `json:"classes,omitempty"`
	OrbitsCollapsed int64 `json:"orbits_collapsed,omitempty"`
	// MemoHits / MemoMisses count group-pricing memo lookups; MemoEntries is
	// the number of evaluations the explorer's walks stored in their own
	// memos, one per miss until the exploration's fixed entry budget is full
	// (all zero with the memo off).
	MemoHits    int64 `json:"memo_hits,omitempty"`
	MemoMisses  int64 `json:"memo_misses,omitempty"`
	MemoEntries int64 `json:"memo_entries,omitempty"`
}

// ExploreDone is the stream's terminal event.
type ExploreDone struct {
	Front []DesignPoint `json:"front"`
	Stats ExploreStats  `json:"stats"`
}

// ExploreEvent is one NDJSON line of the /v1/explore stream: exactly one
// field is set. Point events carry priced design points as the engine visits
// them (absent with FrontOnly); the final line is either Done or Error.
type ExploreEvent struct {
	Point *DesignPoint `json:"point,omitempty"`
	Done  *ExploreDone `json:"done,omitempty"`
	Error string       `json:"error,omitempty"`
}

// Simulation limits: a simulate request is bounded in jobs, slots, policies
// and emitted snapshot lines before any engine runs. MaxSimPRMs bounds the
// one-PRR shared platform; co-exploration reuses MaxExplorePRMs because it
// walks the same Bell(n) space.
const (
	MaxSimJobs      = 1_000_000
	MaxSimSlots     = 16
	MaxSimPRMs      = 64
	MaxSimPolicies  = 4
	MaxSimSnapshots = 10_000
	// MaxSimMeanUS caps mean_gap_us and mean_exec_us at 1000 hours, the
	// simulator's sim.MaxMixMean.
	MaxSimMeanUS = 3_600_000_000
)

// simPolicies are the scheduler policies /v1/simulate accepts.
var simPolicies = map[string]bool{"fcfs": true, "priority": true, "reconfig": true}

// SimMix is the wire form of the seeded workload generator: all durations in
// integer microseconds so the job mix — and therefore the whole simulation —
// is reproducible bit-for-bit from the request.
type SimMix struct {
	Jobs int    `json:"jobs"`
	Seed uint64 `json:"seed,omitempty"`
	// Arrival is the arrival process: "uniform" (default), "bursty" or
	// "simultaneous".
	Arrival string `json:"arrival,omitempty"`
	// MeanGapUS and MeanExecUS are the mean inter-arrival and service times
	// (service defaults to 500). Each is at most MaxSimMeanUS, and jointly
	// jobs² × (4·mean_gap_us + 2·mean_exec_us) must not exceed 2^62 ns
	// (sim.MaxMixLoad, about 4.6e15 µs) so the simulated int64-nanosecond
	// clock can never wrap; anything beyond is a 400.
	MeanGapUS  int64 `json:"mean_gap_us,omitempty"`
	MeanExecUS int64 `json:"mean_exec_us,omitempty"`
	Burst      int   `json:"burst,omitempty"`
	// Weights biases the PRM-class draw; positional, one per PRM.
	Weights        []int `json:"weights,omitempty"`
	PriorityLevels int   `json:"priority_levels,omitempty"`
}

// SimulateRequest is the POST /v1/simulate body. Exactly one of PRMs and
// SyntheticN picks the module set. Without CoExplore the modules share one
// merged PRR replicated Slots times and a single Policy runs; with CoExplore
// the branch-and-bound explorer's exact Pareto front is scored per
// organization under every requested policy. The response is an NDJSON
// stream of SimEvent lines ending with a Done event.
//
// Simulate requests are deliberately not canonicalized for caching: Mix
// weights are positional, so PRM order is semantic.
type SimulateRequest struct {
	Device     string `json:"device"`
	PRMs       []PRM  `json:"prms,omitempty"`
	SyntheticN int    `json:"synthetic_n,omitempty"`
	// Slots is the shared-PRR replica count (default 2; ignored with
	// CoExplore, where each front organization fixes its own slots).
	Slots int `json:"slots,omitempty"`
	// Policy picks the scheduler for a single run (default "fcfs").
	Policy string `json:"policy,omitempty"`
	// Policies picks the schedulers a co-exploration scores (default all).
	Policies  []string `json:"policies,omitempty"`
	CoExplore bool     `json:"co_explore,omitempty"`
	Mix       SimMix   `json:"mix"`
	// SnapshotEvery emits a progress snapshot every that many completions
	// (0 picks a cadence of ~20 snapshots per run).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// SummaryOnly suppresses snapshots: the response is the single Done
	// line, cached under the request's canonical key.
	SummaryOnly bool `json:"summary_only,omitempty"`
	// Options tunes the branch-and-bound engine (CoExplore only).
	Options ExploreOptions `json:"options,omitempty"`
}

// Validate bounds the simulation before any engine runs.
func (r *SimulateRequest) Validate() error {
	if r.Device == "" {
		return fmt.Errorf("api: simulate request needs a device")
	}
	if r.SyntheticN < 0 {
		return fmt.Errorf("api: negative synthetic_n")
	}
	if (len(r.PRMs) == 0) == (r.SyntheticN == 0) {
		return fmt.Errorf("api: simulate request needs exactly one of prms and synthetic_n")
	}
	n := max(len(r.PRMs), r.SyntheticN)
	limit := MaxSimPRMs
	if r.CoExplore {
		limit = MaxExplorePRMs
	}
	if n > limit {
		return fmt.Errorf("api: simulate over %d PRMs exceeds the %d-PRM limit", n, limit)
	}
	if r.Slots < 0 || r.Slots > MaxSimSlots {
		return fmt.Errorf("api: %d slots exceeds the %d-slot limit", r.Slots, MaxSimSlots)
	}
	if r.Policy != "" && !simPolicies[r.Policy] {
		return fmt.Errorf("api: unknown policy %q (want fcfs, priority or reconfig)", r.Policy)
	}
	if len(r.Policies) > 0 && !r.CoExplore {
		return fmt.Errorf("api: policies list is co-exploration only; use policy")
	}
	if len(r.Policies) > MaxSimPolicies {
		return fmt.Errorf("api: %d policies exceeds the %d-policy limit", len(r.Policies), MaxSimPolicies)
	}
	seen := map[string]bool{}
	for _, p := range r.Policies {
		if !simPolicies[p] {
			return fmt.Errorf("api: unknown policy %q (want fcfs, priority or reconfig)", p)
		}
		if seen[p] {
			return fmt.Errorf("api: duplicate policy %q", p)
		}
		seen[p] = true
	}
	m := &r.Mix
	if m.Jobs <= 0 {
		return fmt.Errorf("api: simulate mix needs a positive job count")
	}
	if m.Jobs > MaxSimJobs {
		return fmt.Errorf("api: mix of %d jobs exceeds the %d-job limit", m.Jobs, MaxSimJobs)
	}
	switch m.Arrival {
	case "", "uniform", "bursty", "simultaneous":
	default:
		return fmt.Errorf("api: unknown arrival process %q (want uniform, bursty or simultaneous)", m.Arrival)
	}
	if m.MeanGapUS < 0 || m.MeanExecUS < 0 || m.Burst < 0 || m.PriorityLevels < 0 {
		return fmt.Errorf("api: simulate mix fields must be non-negative")
	}
	if m.MeanGapUS > MaxSimMeanUS || m.MeanExecUS > MaxSimMeanUS {
		return fmt.Errorf("api: simulate mix means exceed the %d µs limit", MaxSimMeanUS)
	}
	if len(m.Weights) != 0 && len(m.Weights) != n {
		return fmt.Errorf("api: %d mix weights for %d PRMs", len(m.Weights), n)
	}
	if r.SnapshotEvery < 0 {
		return fmt.Errorf("api: negative snapshot_every")
	}
	if r.SnapshotEvery > 0 && m.Jobs/r.SnapshotEvery > MaxSimSnapshots {
		return fmt.Errorf("api: snapshot cadence emits over %d lines; raise snapshot_every", MaxSimSnapshots)
	}
	return r.Options.validate()
}

// SimMetrics is the schedule-aware summary of one simulation run.
type SimMetrics struct {
	Policy         string  `json:"policy"`
	Jobs           int     `json:"jobs"`
	Completed      int     `json:"completed"`
	MakespanNS     int64   `json:"makespan_ns"`
	MeanWaitNS     int64   `json:"mean_wait_ns"`
	P99WaitNS      int64   `json:"p99_wait_ns"`
	MaxWaitNS      int64   `json:"max_wait_ns"`
	MeanResponseNS int64   `json:"mean_response_ns"`
	Reconfigs      int64   `json:"reconfigs"`
	Preemptions    int64   `json:"preemptions"`
	ICAPTransfers  int64   `json:"icap_transfers"`
	ICAPBusy       float64 `json:"icap_busy"`
	Utilization    float64 `json:"utilization"`
}

// SimSnapshot is one progress sample on the wire. Org and Policy label
// which co-exploration run the sample belongs to (absent in single mode).
type SimSnapshot struct {
	Org         int     `json:"org,omitempty"`
	Policy      string  `json:"policy,omitempty"`
	Seq         int     `json:"seq"`
	NowNS       int64   `json:"now_ns"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Ready       int     `json:"ready"`
	Running     int     `json:"running"`
	Reconfigs   int64   `json:"reconfigs"`
	Preemptions int64   `json:"preemptions"`
	ICAPBusy    float64 `json:"icap_busy"`
	MeanWaitNS  int64   `json:"mean_wait_ns"`
}

// SimSlot is one slot's share of a single-mode run.
type SimSlot struct {
	Name      string `json:"name"`
	BusyNS    int64  `json:"busy_ns"`
	Reconfigs int    `json:"reconfigs"`
	ICAPNS    int64  `json:"icap_ns"`
}

// SimScore is one (organization, policy) result of a co-exploration.
type SimScore struct {
	// Org indexes the exact Pareto front in enumeration order.
	Org     int        `json:"org"`
	Groups  [][]string `json:"groups"`
	Metrics SimMetrics `json:"metrics"`
}

// SimDone is the stream's terminal event: a single-mode run reports Metrics
// and PerSlot; a co-exploration reports Scores ranked by (policy, p99
// waiting time) plus the explorer's stats.
type SimDone struct {
	Metrics   *SimMetrics   `json:"metrics,omitempty"`
	PerSlot   []SimSlot     `json:"per_slot,omitempty"`
	Scores    []SimScore    `json:"scores,omitempty"`
	FrontSize int           `json:"front_size,omitempty"`
	Stats     *ExploreStats `json:"stats,omitempty"`
	// OrgsTruncated is set when the front was larger than the number of
	// organizations the server scores.
	OrgsTruncated bool `json:"orgs_truncated,omitempty"`
}

// SimEvent is one NDJSON line of the /v1/simulate stream: exactly one field
// is set. Snapshot events stream progress; Score events stream finished
// co-exploration runs; the final line is either Done or Error.
type SimEvent struct {
	Snapshot *SimSnapshot `json:"snapshot,omitempty"`
	Score    *SimScore    `json:"score,omitempty"`
	Done     *SimDone     `json:"done,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CanonicalKey hashes a decoded request into the cache/coalescing key:
// endpoint plus the SHA-256 of the struct's re-marshaled JSON. Hashing the
// decoded struct — not the raw body — makes the key insensitive to field
// order, whitespace and unknown fields, so equivalent requests from
// different clients coalesce. Explore requests are canonicalized first, so
// permutations of the same PRM multiset (interchangeable orderings of
// duplicate-heavy workloads in particular) also share a key.
func CanonicalKey(endpoint string, req any) string {
	if er, ok := req.(*ExploreRequest); ok {
		req = er.Canonicalized()
	}
	raw, err := json.Marshal(req)
	if err != nil {
		// Wire types marshal by construction; a failure is a programming
		// error, but an unshared key is always safe.
		return endpoint + "!unhashable"
	}
	sum := sha256.Sum256(raw)
	return endpoint + "@" + hex.EncodeToString(sum[:16])
}
