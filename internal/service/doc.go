// Package service is the serving layer of the cost-model engine: an
// HTTP/JSON API exposing the PRR size/organization model (Eqs. (1)–(17)),
// the bitstream size model (Eqs. (18)–(23)) and the branch-and-bound design-
// space explorer to external consumers — schedulers that need PRR-size and
// reconfiguration-cost answers online, per task, at placement time.
//
// Endpoints:
//
//	GET  /v1/devices   device catalog descriptors
//	POST /v1/prr       batch PRR size/organization estimates
//	POST /v1/bitstream batch partial-bitstream costs
//	POST /v1/explore   Pareto exploration, streamed as NDJSON
//	POST /v1/simulate  multitasking simulation, streamed as NDJSON
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text (the process obs registry)
//	GET  /debug/slo    rolling per-endpoint SLO standings
//
// Every request takes one of two paths. Cacheable requests — batches,
// front-only explorations, summary-only simulations — go through cached:
// identical in-flight requests coalesce through singleflight on
// canonicalized request hashes (api.CanonicalKey) and responses land in a
// bounded sharded LRU keyed the same way. Point and event streams go through
// stream. Admission control (max in-flight plus a per-client token bucket)
// sheds excess load with 429 + Retry-After before any model runs. Shutdown
// drains: in-flight requests, explore streams and simulate runs finish
// within the caller's grace context, then stragglers are cancelled; new
// explore and simulate runs are refused with 503 while batches are still
// answered.
package service
