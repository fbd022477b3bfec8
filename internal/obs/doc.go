// Package obs is the engine's dependency-free observability layer: an
// atomic metrics registry (counters, gauges, histograms with fixed bucket
// layouts suited to the cost models' µs–ms evaluation latencies), lightweight
// span tracing propagated through context.Context, a JSONL access-log sink,
// and a Prometheus text encoder, which costd serves at /metrics. Series are
// cumulative; windowed rates and quantiles are the scraper's to take.
//
// The default path is designed to cost nothing measurable: counters and
// gauges are single atomic words, engines take one time.Now pair per run,
// and spans are recorded only when a tracer is in the context. Active(),
// which stays false until a tracer, a run summary or costd's server is
// started, gates the one heavier path: floorplan's per-device histograms.
// Instrumented packages therefore register their metrics unconditionally at
// init.
package obs
