// Command costd serves the cost models, the exploration engine and the
// multitasking simulator over HTTP/JSON: the PRR size/organization model
// (Eqs. (1)–(17)), the bitstream size model (Eqs. (18)–(23)), the
// branch-and-bound Pareto explorer and the discrete-event simulator with its
// explorer+scheduler co-exploration, behind request coalescing, a bounded
// response cache and admission control (past 256 requests in flight, 429 +
// Retry-After).
//
// Usage:
//
//	costd -addr :8433
//	costd -addr :8433 -cache 4096 -grace 30s
//	costd -addr :0 -summary run.json     # summary written on shutdown
//	costd -addr :0 -trace-out spans.jsonl -access-log access.jsonl
//
// Endpoints: GET /v1/devices, POST /v1/prr, POST /v1/bitstream,
// POST /v1/explore (NDJSON stream), POST /v1/simulate (NDJSON stream),
// GET /healthz, GET /metrics (per endpoint: service_requests_total,
// service_request_failures_total and the service_request_seconds latency
// histogram).
//
// Every response carries X-Request-ID: the trace ID from the caller's W3C
// traceparent header when one was sent, a freshly minted one otherwise. With
// -trace-out each request records a span tree (admission, handler, engine
// subtrees) under that ID; with -access-log each request appends one JSON
// line carrying it, so logs, traces and client-side records correlate.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests and exploration
// and simulation streams drain within -grace, then stragglers are cancelled.
// With -summary the per-run metric summary — every registry series, the
// serving counters (requests, coalesced, cache hits, shed) among them — is
// written on exit, and -cpuprofile/-memprofile profiles cover the whole
// serving run up to that point.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8433", "listen address (\":0\" picks a free port)")
	cache := flag.Int("cache", service.DefaultCacheEntries, "response cache entries (negative = off)")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown drain budget")
	accessLogOut := flag.String("access-log", "",
		"write one JSON line per served request to this file (empty = off)")
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()

	sess, err := obsFlags.Start("costd")
	if err != nil {
		fatal(err)
	}
	var accessLog *obs.AccessLog
	if *accessLogOut != "" {
		file, err := os.Create(*accessLogOut)
		if err != nil {
			fatal(fmt.Errorf("opening access log: %w", err))
		}
		accessLog = obs.NewAccessLog(file)
	}

	srv := service.New(service.Config{
		CacheEntries: *cache,
		Tracer:       sess.Tracer(),
		AccessLog:    accessLog,
	})
	if err := srv.Start(*addr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "costd: serving on %s\n", srv.URL())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "costd: shutting down (drain budget %v)\n", *grace)

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "costd: forced shutdown: %v\n", err)
	}
	accessErr := accessLog.Close()

	if err := sess.Finish("", map[string]string{
		"addr":  *addr,
		"cache": fmt.Sprint(*cache),
	}); err != nil {
		fatal(err)
	}
	if accessErr != nil {
		fatal(fmt.Errorf("closing access log: %w", accessErr))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "costd:", err)
	os.Exit(1)
}
