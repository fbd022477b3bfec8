package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RingSink keeps the most recent spans in a fixed ring, in bounded memory.
// Only tests use it, to inspect the spans a run recorded.
type RingSink struct {
	mu   sync.Mutex
	buf  []SpanRecord
	next int
	n    int
}

// NewRingSink returns a ring holding the last capacity spans (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]SpanRecord, capacity)}
}

// Record implements Sink.
func (r *RingSink) Record(rec SpanRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first.
func (r *RingSink) Snapshot() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// spanJSON is the JSONL wire form of a span record.
type spanJSON struct {
	Trace  string         `json:"trace,omitempty"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  string         `json:"start"`
	DurNS  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// JSONLSink writes one JSON object per completed span, suitable for offline
// analysis (jq, trace viewers). Writes are buffered; Close flushes.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // non-nil when the underlying writer should be closed
	err error
}

// NewJSONLSink wraps w. If w is an io.Closer, Close closes it after
// flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Record implements Sink.
func (s *JSONLSink) Record(rec SpanRecord) {
	j := spanJSON{
		Trace:  rec.Trace,
		ID:     rec.ID,
		Parent: rec.Parent,
		Name:   rec.Name,
		Start:  rec.Start.UTC().Format(time.RFC3339Nano),
		DurNS:  rec.Dur.Nanoseconds(),
	}
	if len(rec.Attrs) > 0 {
		j.Attrs = make(map[string]any, len(rec.Attrs))
		for _, a := range rec.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	line, err := json.Marshal(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("obs: encoding span %q: %w", rec.Name, err)
		}
		return
	}
	if s.err == nil {
		if _, err := s.w.Write(append(line, '\n')); err != nil {
			s.err = err
		}
	}
}

// Err returns the first write or encoding error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes buffered spans and closes the underlying writer when it is
// closable. It returns the first error seen over the sink's lifetime.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	return s.err
}
