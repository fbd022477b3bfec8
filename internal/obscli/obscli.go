// Package obscli wires the observability layer into commands: the shared
// -trace-out/-summary/-cpuprofile/-memprofile flags, the trace sink's and
// the profiles' lifecycle, and the per-run JSON summary. It exists so the
// commands expose identical observability surfaces without duplicating the
// plumbing; internal/obs itself stays dependency-free.
package obscli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Flags holds the observability command-line options.
type Flags struct {
	TraceOut   string
	SummaryOut string
	CPUProfile string
	MemProfile string
}

// Register installs the observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write spans as JSON lines to this file (empty = off)")
	fs.StringVar(&f.SummaryOut, "summary", "",
		"write the machine-readable per-run summary JSON to this file (empty = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "",
		"write a heap profile (after the run) to this file")
	return f
}

// Session is the running observability state for one command invocation.
type Session struct {
	tool    string
	flags   *Flags
	sink    *obs.JSONLSink
	tracer  *obs.Tracer
	cpuFile *os.File
}

// Start brings up whatever the flags enable. Returns a usable (inert)
// session even when everything is off.
func (f *Flags) Start(tool string) (*Session, error) {
	s := &Session{tool: tool, flags: f}
	if f.SummaryOut != "" {
		// Summaries should include the Active()-gated series too.
		obs.SetActive(true)
	}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("opening trace file: %w", err)
		}
		s.sink = obs.NewJSONLSink(file)
		s.tracer = obs.NewTracer(s.sink)
	}
	if f.CPUProfile != "" {
		if err := s.startCPUProfile(f.CPUProfile); err != nil {
			if s.sink != nil {
				_ = s.sink.Close() // the start-up error is the one to report
			}
			return nil, err
		}
	}
	return s, nil
}

func (s *Session) startCPUProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	s.cpuFile = file
	return nil
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

// Finish stops the CPU profile, writes the heap profile and the run summary,
// and releases every resource. Call it once, after the run's work is done.
func (s *Session) Finish(device string, params map[string]string) error {
	var firstErr error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			firstErr = fmt.Errorf("closing CPU profile: %w", err)
		}
	}
	if s.flags.MemProfile != "" {
		if err := writeHeapProfile(s.flags.MemProfile); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("writing heap profile: %w", err)
		}
	}
	if s.flags.SummaryOut != "" {
		sum := report.NewRunSummary(s.tool, obs.Default())
		sum.Device = device
		sum.Params = params
		sum.UnixNano = time.Now().UnixNano()
		if err := sum.WriteFile(s.flags.SummaryOut); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("writing run summary: %w", err)
		} else if err == nil {
			fmt.Fprintf(os.Stderr, "%s: run summary written to %s\n", s.tool, s.flags.SummaryOut)
		}
	}
	if s.sink != nil {
		if err := s.sink.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing trace file: %w", err)
		}
	}
	return firstErr
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile reflects retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
