package service

import "repro/internal/obs"

// serviceMetrics is the serving layer's observability surface, registered on
// the process registry so costd's /metrics shows engine and serving counters
// side by side. Per-endpoint series are labeled.
type serviceMetrics struct {
	requests map[string]*obs.Counter
	failures map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	inflight *obs.Gauge
	// connections counts accepted TCP connections (Start only): a client
	// that keeps its connections adds one per connection it holds, not one
	// per request.
	connections *obs.Counter

	coalesced      *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge

	shedInflight *obs.Counter

	exploreStreams   *obs.Counter
	exploreCancelled *obs.Counter
	explorePoints    *obs.Counter

	simStreams   *obs.Counter
	simCancelled *obs.Counter
}

// endpoints the per-endpoint series are pre-registered for.
var endpointNames = []string{"devices", "prr", "bitstream", "explore", "simulate", "healthz"}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		requests: make(map[string]*obs.Counter, len(endpointNames)),
		failures: make(map[string]*obs.Counter, len(endpointNames)),
		latency:  make(map[string]*obs.Histogram, len(endpointNames)),
		inflight: reg.Gauge("service_inflight", "admitted requests currently being served"),
		connections: reg.Counter("service_connections_total",
			"TCP connections accepted by the listener"),

		coalesced: reg.Counter("service_coalesced_total",
			"requests that shared an identical in-flight evaluation (singleflight followers)"),
		cacheHits: reg.Counter("service_cache_hits_total",
			"cacheable responses served from the LRU response cache"),
		cacheMisses: reg.Counter("service_cache_misses_total",
			"cacheable requests that missed the response cache"),
		cacheEvictions: reg.Counter("service_cache_evictions_total",
			"response-cache entries evicted under the entry bound"),
		cacheEntries: reg.Gauge("service_cache_entries",
			"response-cache entries currently resident"),

		shedInflight: reg.Counter("service_shed_total",
			"requests rejected by admission control", obs.L("reason", "inflight")),

		exploreStreams: reg.Counter("service_explore_streams_total",
			"NDJSON exploration streams opened"),
		exploreCancelled: reg.Counter("service_explore_cancelled_total",
			"exploration streams aborted by client disconnect or shutdown"),
		explorePoints: reg.Counter("service_explore_points_total",
			"design points delivered over exploration streams"),

		simStreams: reg.Counter("service_sim_streams_total",
			"NDJSON simulation streams opened"),
		simCancelled: reg.Counter("service_sim_cancelled_total",
			"simulation streams aborted by client disconnect or shutdown"),
	}
	for _, ep := range endpointNames {
		m.requests[ep] = reg.Counter("service_requests_total",
			"API requests per endpoint, shed ones included", obs.L("endpoint", ep))
		m.failures[ep] = reg.Counter("service_request_failures_total",
			"requests per endpoint answered 5xx or 429, shed and drain-refused ones included",
			obs.L("endpoint", ep))
		m.latency[ep] = reg.Histogram("service_request_seconds",
			"request latency per endpoint", obs.LatencyBuckets, obs.L("endpoint", ep))
	}
	return m
}
