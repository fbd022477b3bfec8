package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/icap"
	"repro/internal/obs"
)

// Config tunes the serving layer. The zero value serves with sane defaults;
// fields are capacities and policies, not wiring.
type Config struct {
	// CacheEntries bounds the response cache across all shards.
	// 0 means DefaultCacheEntries; negative disables caching. The cache
	// also holds at most DefaultCacheBytes of keys and responses.
	CacheEntries int
	// Registry receives the serving metrics; nil means obs.Default().
	Registry *obs.Registry
	// Tracer, when set, records a span tree per request. Incoming W3C
	// traceparent headers are honored either way: the trace ID is echoed as
	// X-Request-ID and logged even when no spans are recorded.
	Tracer *obs.Tracer
	// AccessLog, when set, receives one JSONL line per request — including
	// shed and drain-refused ones. The server flushes it on Shutdown/Close;
	// the caller owns Close.
	AccessLog *obs.AccessLog

	// maxInflight and evalHook are test seams: the in-flight cap (0 means
	// DefaultMaxInflight) and a hook invoked before each cache-missed
	// evaluation.
	maxInflight int
	evalHook    func(endpoint string)
}

// estimator prices reconfiguration time for bitstream results, explorations
// and simulations: the 32-bit ICAP fed from DDR SDRAM.
var estimator icap.Estimator = icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}

// Serving capacities. DefaultCacheEntries is the zero Config's entry cap.
// The other two are fixed: DefaultCacheBytes bounds the response cache's
// memory whatever its entry cap, and admission sheds every request past
// DefaultMaxInflight in flight with 429 + Retry-After.
const (
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 64 << 20
	DefaultMaxInflight  = 256
)

// Server is the cost-model HTTP service. It implements http.Handler (so
// tests can mount it on httptest.Server) and owns its listener when started
// via Start.
type Server struct {
	cfg   Config
	met   *serviceMetrics
	mux   *http.ServeMux
	cache *lruCache
	// flight coalesces identical in-flight cacheable evaluations.
	flight *flightGroup

	inflightN atomic.Int64
	// streamMu guards the registry of explore and simulate runs — NDJSON
	// streams and cacheable runs alike — so handler-only shutdown (no net
	// listener, e.g. under httptest) can drain live runs and refuse new
	// ones. streamsIdle is non-nil while a drain waits and is closed when
	// streamN reaches zero.
	streamMu    sync.Mutex
	streamN     int
	draining    bool
	streamsIdle chan struct{}
	// drainCtx is cancelled when a graceful shutdown gives up waiting,
	// cutting in-flight explorations and simulations loose.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	ln   net.Listener
	http *http.Server
	done chan struct{}
}

// New builds the service from the config.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = DefaultCacheEntries
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0
	}
	if cfg.maxInflight == 0 {
		cfg.maxInflight = DefaultMaxInflight
	}
	s := &Server{
		cfg:    cfg,
		met:    newServiceMetrics(cfg.Registry),
		cache:  newLRUCache(cfg.CacheEntries),
		flight: newFlightGroup(),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())

	// Warm the per-fabric window indexes for the whole catalog up front: the
	// first request against any device then pays only its own need's
	// candidate build, not the fabric classification.
	for _, d := range device.All() {
		d.Fabric.WindowIndex()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/devices", s.wrap("devices", s.handleDevices))
	mux.HandleFunc("POST /v1/prr", s.wrap("prr", s.handlePRR))
	mux.HandleFunc("POST /v1/bitstream", s.wrap("bitstream", s.handleBitstream))
	mux.HandleFunc("POST /v1/explore", s.wrap("explore", s.handleExplore))
	mux.HandleFunc("POST /v1/simulate", s.wrap("simulate", s.handleSimulate))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	s.mux = mux
	return s
}

// ServeHTTP lets the server be mounted as a plain handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start listens on addr (":0" picks a free port) and serves in a background
// goroutine until Shutdown or Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				s.met.connections.Inc()
			}
		}}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln)
	}()
	obs.SetActive(true)
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown drains the service: it stops accepting connections and waits for
// in-flight requests — including NDJSON explore and simulate streams — to
// finish. If ctx expires first, remaining runs are cancelled (explorations
// observe their context within a few hundred tree nodes, simulations within
// ~1k events) and the server is closed hard; the context's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	defer func() { _ = s.cfg.AccessLog.Flush() }()
	if s.http != nil {
		err := s.http.Shutdown(ctx)
		if err != nil {
			s.drainCancel()
			_ = s.http.Close()
		}
		<-s.done
		s.drainCancel()
		return err
	}
	// Handler-only mode: no listener to close, but streams still drain.
	err := s.drainStreams(ctx)
	s.drainCancel()
	return err
}

// registerStream admits one explore or simulate run (a stream or a cacheable
// run), unless a drain has begun.
func (s *Server) registerStream() bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.draining {
		return false
	}
	s.streamN++
	return true
}

func (s *Server) unregisterStream() {
	s.streamMu.Lock()
	s.streamN--
	if s.streamN == 0 && s.streamsIdle != nil {
		close(s.streamsIdle)
		s.streamsIdle = nil
	}
	s.streamMu.Unlock()
}

// drainStreams refuses new explore and simulate runs and waits for live ones.
// When ctx expires first, the stragglers are cancelled and awaited; ctx's
// error is returned.
func (s *Server) drainStreams(ctx context.Context) error {
	s.streamMu.Lock()
	s.draining = true
	if s.streamN == 0 {
		s.streamMu.Unlock()
		return nil
	}
	if s.streamsIdle == nil {
		s.streamsIdle = make(chan struct{})
	}
	idle := s.streamsIdle
	s.streamMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.drainCancel()
		<-idle
		return ctx.Err()
	}
}

// Close stops the server immediately, cancelling in-flight explorations and
// simulations.
func (s *Server) Close() error {
	s.drainCancel()
	defer func() { _ = s.cfg.AccessLog.Flush() }()
	if s.http == nil {
		return nil
	}
	err := s.http.Close()
	<-s.done
	return err
}

// reqInfo is the annotation channel between the middleware and the handlers
// it wraps: handlers record the canonical request key and drain refusals,
// the deferred access-log write reads them.
type reqInfo struct {
	key  string
	shed string
}

type reqInfoKey struct{}

// annotations returns the request's reqInfo; a detached context yields a
// discardable dummy so annotating is always safe.
func annotations(ctx context.Context) *reqInfo {
	if ri, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{}
}

// countingWriter captures the served status and body size for the access
// log, delegating Flush so NDJSON streams keep their liveness behavior.
type countingWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) status() int {
	if c.code == 0 {
		return http.StatusOK
	}
	return c.code
}

// wrap applies request tracing, admission control, accounting and access
// logging around a handler. Every request, shed ones included, counts once in
// service_requests_total and service_request_seconds; it fails — and counts
// in service_request_failures_total — when it is answered 5xx or 429, shed
// and drain-refused requests included. The trace ID — extracted from a W3C
// traceparent header when the caller sent one, minted otherwise — is echoed
// as X-Request-ID on every response, including sheds and drain refusals, so
// a rejected client can still quote a correlatable ID. Liveness (/healthz)
// is never shed: a load balancer probing a saturated instance must still get
// an answer.
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.Tracer != nil {
			ctx = obs.WithTracer(ctx, s.cfg.Tracer)
		}
		ctx, tc := obs.Extract(ctx, r.Header)
		if tc.TraceID == "" {
			// No (valid) traceparent: start a fresh trace. SpanID stays 0 so
			// the request's first span is a root.
			tc = obs.TraceContext{TraceID: obs.NewTraceID()}
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		ri := &reqInfo{}
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		r = r.WithContext(ctx)

		rec := &countingWriter{ResponseWriter: w}
		rec.Header().Set("X-Request-ID", tc.TraceID)
		s.met.requests[endpoint].Inc()
		t0 := time.Now()
		defer func() {
			dur := time.Since(t0)
			s.met.latency[endpoint].Observe(dur.Seconds())
			status := rec.status()
			if status >= http.StatusInternalServerError || status == http.StatusTooManyRequests {
				s.met.failures[endpoint].Inc()
			}
			s.cfg.AccessLog.Write(obs.AccessRecord{
				Method:   r.Method,
				Endpoint: endpoint,
				Path:     r.URL.Path,
				Status:   status,
				Bytes:    rec.bytes,
				DurNS:    dur.Nanoseconds(),
				TraceID:  tc.TraceID,
				Client:   clientID(r),
				Key:      ri.key,
				Cache:    rec.Header().Get("X-Cache"),
				Shed:     ri.shed,
			})
		}()

		if endpoint != "healthz" {
			cur := s.inflightN.Add(1)
			defer s.inflightN.Add(-1)
			if cur > int64(s.cfg.maxInflight) {
				s.met.shedInflight.Inc()
				ri.shed = "inflight"
				shed(rec)
				return
			}
			s.met.inflight.Add(1)
			defer s.met.inflight.Add(-1)
		}
		ctx, span := obs.StartSpan(ctx, "service."+endpoint)
		defer span.End()
		h(rec, r.WithContext(ctx))
	}
}

// clientID names the caller in the access log: the X-Client-ID header when
// present (the typed client sends its ID field there), else the peer host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// shed writes the 429 + Retry-After admission rejection.
func shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpErr(w, http.StatusTooManyRequests, "overloaded, retry later")
}

// httpErr writes the JSON error body every non-2xx response carries.
func httpErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", contentJSON)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
