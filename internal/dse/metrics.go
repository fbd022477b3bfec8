package dse

import "repro/internal/obs"

// Process-wide branch-and-bound metrics, registered in the default
// observability registry so /metrics shows engine-wide totals: how much of
// the design space the bounds removed before any pricing happened, how much
// incremental pricing work the surviving tree cost, and how small the
// streaming engine's resident set stayed.
var (
	metBBExplorations = obs.Default().Counter("dse_bb_explorations_total",
		"completed branch-and-bound explorations")
	metBBSubtrees = obs.Default().Counter("dse_bb_subtree_jobs_total",
		"parallel subtree jobs dispatched by the branch-and-bound splitter")
	metBBEvaluated = obs.Default().Counter("dse_bb_partitions_evaluated_total",
		"partitions fully priced by the branch-and-bound engine")
	metBBPrunedFit = obs.Default().Counter("dse_bb_partitions_pruned_total",
		"partitions skipped without evaluation, by bound kind",
		obs.L("bound", "fit"))
	metBBPrunedDom = obs.Default().Counter("dse_bb_partitions_pruned_total",
		"partitions skipped without evaluation, by bound kind",
		obs.L("bound", "dominated"))
	metBBGroupPricings = obs.Default().Counter("dse_bb_group_pricings_total",
		"incremental group pricings along tree edges (the engine's work unit)")
	metBBFrontSize = obs.Default().Gauge("dse_bb_front_size",
		"Pareto-front size of the most recent streaming exploration")
	metBBResidentPeak = obs.Default().Gauge("dse_bb_resident_points_peak",
		"peak design points resident during the most recent streaming exploration")
	metBBPruneDepthFit = obs.Default().Histogram("dse_bb_prune_depth",
		"RGS tree depth at which subtrees were pruned, by bound kind",
		obs.CountBuckets, obs.L("bound", "fit"))
	metBBPruneDepthDom = obs.Default().Histogram("dse_bb_prune_depth",
		"RGS tree depth at which subtrees were pruned, by bound kind",
		obs.CountBuckets, obs.L("bound", "dominated"))
)

// Group-pricing memo metrics (see memo.go): how much of the fiber walk's
// pricing work collapsed to orbit-level lookups.
var (
	metMemoHits = obs.Default().Counter("dse_group_memo_hits_total",
		"group-pricing memo lookups answered without touching the cost models")
	metMemoMisses = obs.Default().Counter("dse_group_memo_misses_total",
		"group-pricing memo lookups that priced the group with the cost models")
	metMemoEntries = obs.Default().Counter("dse_group_memo_entries_total",
		"(composition, avoid-multiset) evaluations the explorer walks stored in their group-pricing memos, one per miss until the entry budget is full")
)

// Symmetry-collapse metrics: how many PRM equivalence classes the
// canonicalizer found and how much of the partition space the multiset
// enumeration removed as interchangeable-fiber duplicates.
var (
	metSymClasses = obs.Default().Counter("dse_symmetry_classes_total",
		"PRM requirement-signature equivalence classes identified across explorations")
	metSymCollapsed = obs.Default().Counter("dse_symmetry_collapsed_total",
		"partitions skipped as non-canonical members of an interchangeable-PRM fiber")
	metSymCollapsePct = obs.Default().Gauge("dse_symmetry_collapse_ratio_pct",
		"percentage of the most recent exploration's partition space removed by the symmetry collapse")
)
