package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span.
type Attr struct {
	Key   string
	Value any
}

// SpanRecord is a completed span as delivered to a Sink.
type SpanRecord struct {
	// Trace is the W3C trace ID (32 lowercase hex chars) shared by every
	// span of one logical request, across process boundaries.
	Trace  string
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives completed spans. Implementations must be safe for
// concurrent Record calls.
type Sink interface {
	Record(r SpanRecord)
}

// Tracer allocates span IDs and forwards completed spans to its sink.
type Tracer struct {
	sink Sink
	ids  atomic.Uint64
}

// NewTracer returns a tracer writing to sink and marks instrumentation
// active (tracing implies the heavyweight paths are wanted). Span IDs start
// at a random 64-bit offset so spans from different processes participating
// in one distributed trace do not collide.
func NewTracer(sink Sink) *Tracer {
	SetActive(true)
	t := &Tracer{sink: sink}
	t.ids.Store(NewSpanID())
	return t
}

type tracerKey struct{}
type traceKey struct{}

// WithTracer attaches the tracer to the context; StartSpan on the returned
// context (and its descendants) records spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// TraceContext is a position in a distributed trace: the trace every span of
// one request shares, and the span ID new children parent under. A zero
// TraceID means "no trace yet"; a zero SpanID under a non-zero TraceID marks
// a trace root (the next span has no parent).
type TraceContext struct {
	TraceID string // 32 lowercase hex chars (16 bytes); "" = unset
	SpanID  uint64 // current span, parent of the next child; 0 = root
}

// Valid reports whether the context can be propagated on the wire: W3C
// forbids all-zero trace and parent IDs.
func (tc TraceContext) Valid() bool {
	return len(tc.TraceID) == 32 && tc.TraceID != zeroTraceID && tc.SpanID != 0
}

const zeroTraceID = "00000000000000000000000000000000"

// ContextWithTrace pins the trace position; StartSpan and Inject downstream
// use it. Extract and servers attach remote parents this way.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom returns the context's trace position, if any.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok
}

// fallbackIDs feeds NewTraceID/NewSpanID should crypto/rand ever fail (it
// does not on supported platforms, but an ID generator must not).
var fallbackIDs atomic.Uint64

// NewTraceID returns a fresh random W3C trace ID: 16 bytes as lowercase hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:8], NewSpanID())
		binary.BigEndian.PutUint64(b[8:], fallbackIDs.Add(1))
	}
	if allZero(b[:]) {
		b[15] = 1 // the all-zero trace ID is invalid on the wire
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh random non-zero span ID.
func NewSpanID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fallbackIDs.Add(1) | 1<<63
	}
	if id := binary.BigEndian.Uint64(b[:]); id != 0 {
		return id
	}
	return fallbackIDs.Add(1) | 1<<63
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TraceparentHeader is the W3C Trace Context propagation header.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders the W3C header value:
// version 00, trace-id, parent-id, flags 01 (sampled).
func FormatTraceparent(tc TraceContext) string {
	var buf [55]byte
	b := buf[:0]
	b = append(b, "00-"...)
	b = append(b, tc.TraceID...)
	b = append(b, '-')
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], tc.SpanID)
	b = hex.AppendEncode(b, id[:])
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceparent decodes a traceparent value. It accepts any version
// except the reserved ff, requires lowercase hex, and rejects the all-zero
// trace and parent IDs; anything malformed reports ok = false, and callers
// fall back to starting a fresh trace.
func ParseTraceparent(v string) (tc TraceContext, ok bool) {
	if len(v) < 55 {
		return TraceContext{}, false
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceContext{}, false
	}
	version, trace, parent, flags := v[0:2], v[3:35], v[36:52], v[53:55]
	if !isHexLower(version) || version == "ff" {
		return TraceContext{}, false
	}
	// Version 00 has exactly these four fields; later versions may append
	// more, so extra suffix bytes are only tolerated there.
	if version == "00" && len(v) != 55 {
		return TraceContext{}, false
	}
	if version != "00" && len(v) > 55 && v[55] != '-' {
		return TraceContext{}, false
	}
	if !isHexLower(trace) || trace == zeroTraceID {
		return TraceContext{}, false
	}
	if !isHexLower(parent) || !isHexLower(flags) {
		return TraceContext{}, false
	}
	span, err := hex.DecodeString(parent)
	if err != nil {
		return TraceContext{}, false
	}
	id := binary.BigEndian.Uint64(span)
	if id == 0 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: trace, SpanID: id}, true
}

// isHexLower reports whether s is entirely lowercase hex digits (the W3C
// header is case-sensitive; uppercase is malformed).
func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Inject writes the context's trace position into h as a traceparent header.
// Without a propagable position it leaves h untouched.
func Inject(ctx context.Context, h http.Header) {
	if tc, ok := TraceFrom(ctx); ok && tc.Valid() {
		h.Set(TraceparentHeader, FormatTraceparent(tc))
	}
}

// Extract parses the traceparent header and, when well-formed, attaches the
// remote position to the context so the next StartSpan joins the caller's
// trace as a child of its span. Malformed or absent headers return ctx
// unchanged and a zero TraceContext: the server then starts a fresh trace.
func Extract(ctx context.Context, h http.Header) (context.Context, TraceContext) {
	tc, ok := ParseTraceparent(h.Get(TraceparentHeader))
	if !ok {
		return ctx, TraceContext{}
	}
	return ContextWithTrace(ctx, tc), tc
}

// Span is an in-flight traced operation. A nil *Span is valid and inert, so
// instrumented code calls SetAttr/End unconditionally; when no tracer is in
// the context nothing is allocated or recorded. A span belongs to the
// goroutine that started it — SetAttr and End are not synchronized.
type Span struct {
	tracer *Tracer
	trace  string
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// StartSpan begins a span named name under the context's current trace
// position. When the context carries no tracer it returns the context
// unchanged and a nil span. A context without a trace position starts a
// fresh trace; one carrying a remote position (see Extract) joins it. The
// returned context carries the new span's position so children nest.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	tc, _ := ctx.Value(traceKey{}).(TraceContext)
	if tc.TraceID == "" {
		tc.TraceID = NewTraceID()
	}
	s := &Span{
		tracer: t,
		trace:  tc.TraceID,
		id:     t.ids.Add(1),
		parent: tc.SpanID,
		name:   name,
		start:  time.Now(),
	}
	return ContextWithTrace(ctx, TraceContext{TraceID: tc.TraceID, SpanID: s.id}), s
}

// SetAttr attaches a key/value attribute; it returns the span for chaining
// and is a no-op on nil spans.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Context returns the span's trace position (for Inject); zero on nil spans.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id}
}

// End completes the span and delivers it to the sink. No-op on nil spans
// and on spans already ended.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.tracer.sink.Record(SpanRecord{
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    time.Since(s.start),
		Attrs:  s.attrs,
	})
}
