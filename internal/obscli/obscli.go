// Package obscli wires the observability layer into commands: the shared
// -metrics-addr/-trace-out/-pprof/-summary/-hold flags, debug-server and
// trace-sink lifecycle, and the per-run JSON summary. It exists so the
// commands expose identical observability surfaces without duplicating the
// plumbing; internal/obs itself stays dependency-free.
package obscli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Flags holds the observability command-line options.
type Flags struct {
	MetricsAddr string
	TraceOut    string
	Pprof       bool
	SummaryOut  string
	Hold        time.Duration
}

// Register installs the observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve /metrics and /debug/vars on this address (e.g. :8080 or :0; empty = off)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write spans as JSON lines to this file (empty = off)")
	fs.BoolVar(&f.Pprof, "pprof", false,
		"also serve net/http/pprof under /debug/pprof on the metrics address")
	fs.StringVar(&f.SummaryOut, "summary", "",
		"write the machine-readable per-run summary JSON to this file (empty = off)")
	fs.DurationVar(&f.Hold, "hold", 0,
		"keep the metrics server up this long after the run (for scraping)")
	return f
}

// Session is the running observability state for one command invocation.
type Session struct {
	tool   string
	flags  *Flags
	server *obs.Server
	sink   *obs.JSONLSink
	tracer *obs.Tracer

	// SummaryHook, when set, runs against the run summary before it is
	// written, so commands can attach sections (service stats) the registry
	// alone cannot provide.
	SummaryHook func(*report.RunSummary)
}

// Start brings up whatever the flags enable. Returns a usable (inert)
// session even when everything is off.
func (f *Flags) Start(tool string) (*Session, error) {
	s := &Session{tool: tool, flags: f}
	if f.SummaryOut != "" {
		// Summaries should include the Active()-gated series too.
		obs.SetActive(true)
	}
	if f.MetricsAddr != "" {
		srv, err := obs.StartServer(f.MetricsAddr, obs.Default(), f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("starting metrics server: %w", err)
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "%s: metrics at %s/metrics\n", tool, srv.URL())
	}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("opening trace file: %w", err)
		}
		s.sink = obs.NewJSONLSink(file)
		s.tracer = obs.NewTracer(s.sink)
	}
	return s, nil
}

// Tracer returns the session's tracer, or nil when -trace-out is off.
func (s *Session) Tracer() *obs.Tracer { return s.tracer }

// Context attaches the session's tracer (if any) to ctx, so StartSpan calls
// downstream record spans.
func (s *Session) Context(ctx context.Context) context.Context {
	if s.tracer == nil {
		return ctx
	}
	return obs.WithTracer(ctx, s.tracer)
}

// Finish writes the run summary, holds the metrics server open if requested,
// and releases every resource. Call it once, after the run's work is done.
func (s *Session) Finish(device string, params map[string]string) error {
	var firstErr error
	if s.flags.SummaryOut != "" {
		sum := report.NewRunSummary(s.tool, obs.Default())
		sum.Device = device
		sum.Params = params
		sum.UnixNano = time.Now().UnixNano()
		if s.SummaryHook != nil {
			s.SummaryHook(sum)
		}
		if err := sum.WriteFile(s.flags.SummaryOut); err != nil {
			firstErr = fmt.Errorf("writing run summary: %w", err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: run summary written to %s\n", s.tool, s.flags.SummaryOut)
		}
	}
	if s.server != nil && s.flags.Hold > 0 {
		fmt.Fprintf(os.Stderr, "%s: holding metrics server for %v\n", s.tool, s.flags.Hold)
		time.Sleep(s.flags.Hold)
	}
	if s.sink != nil {
		if err := s.sink.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing trace file: %w", err)
		}
	}
	if s.server != nil {
		// Drain rather than abort: a scraper that connected during -hold
		// keeps its in-flight response.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.server.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing metrics server: %w", err)
		}
	}
	return firstErr
}
