// Package obs is the engine's dependency-free observability layer: an
// atomic metrics registry (counters, gauges, histograms with fixed bucket
// layouts suited to the cost models' µs–ms evaluation latencies), lightweight
// span tracing propagated through context.Context, a JSONL access-log sink,
// and a Prometheus text encoder, which costd serves at /metrics. Series are
// cumulative; windowed rates and quantiles are the scraper's to take.
//
// The default path is designed to cost nothing measurable: counters and
// gauges are single atomic words, and anything heavier — span creation,
// time.Now pairs around hot evaluations, per-device histograms — is gated on
// Active(), which stays false until a tracer, a run summary or costd's
// service is started. Instrumented packages therefore register their metrics
// unconditionally at init and only pay for wall-clock sampling when an
// operator actually asked to watch.
package obs
