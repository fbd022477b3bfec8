package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// AccessLogSchema versions the access-log line format so offline tooling can
// detect incompatible changes.
const AccessLogSchema = "repro/accesslog/v1"

// AccessRecord is one served request as logged, one JSON object per line.
// Schema and Time are filled by the log; callers set the rest.
type AccessRecord struct {
	Schema string `json:"schema"`
	Time   string `json:"time"`
	// Method and Endpoint identify the request; Path is the raw URL path.
	Method   string `json:"method"`
	Endpoint string `json:"endpoint"`
	Path     string `json:"path,omitempty"`
	// Status is the HTTP status served; Bytes the response body size.
	Status int   `json:"status"`
	Bytes  int64 `json:"bytes"`
	DurNS  int64 `json:"dur_ns"`
	// TraceID correlates the line with the request's span tree and the
	// response's X-Request-ID header.
	TraceID string `json:"trace_id,omitempty"`
	// Client is the caller identity admission control keyed on.
	Client string `json:"client,omitempty"`
	// Key is the canonical request key of the prr, bitstream, explore and
	// simulate endpoints: the cache identity of cacheable requests, and the
	// request identity of NDJSON streams.
	Key string `json:"key,omitempty"`
	// Cache is the response-cache verdict: "hit", "miss" or "" (uncached
	// endpoint).
	Cache string `json:"cache,omitempty"`
	// Shed names why admission refused the request: "rate", "inflight" or
	// "draining"; "" for served requests.
	Shed string `json:"shed,omitempty"`
}

// accessFlushInterval bounds how stale a buffered line may get: a burst
// flushes at most once per interval, and any write after a quiet period
// flushes immediately, so a tail -f reader stays at most one request behind.
const accessFlushInterval = 100 * time.Millisecond

// accessBufBytes is the write buffer size; the buffer, one marshaled line at
// a time, is all the memory the log ever holds.
const accessBufBytes = 64 << 10

// AccessLog is a JSONL access-log sink. Lines are marshaled outside the
// lock, written under it (so concurrent writers never interleave), buffered,
// and flushed on a time threshold and on Close. The zero value is not
// usable; a nil *AccessLog is inert, so call sites log unconditionally.
type AccessLog struct {
	mu        sync.Mutex
	w         *bufio.Writer
	c         io.Closer // non-nil when the underlying writer should be closed
	err       error
	lastFlush time.Time
	lines     int64
	now       func() time.Time // test seam
}

// NewAccessLog wraps w. If w is an io.Closer, Close closes it after
// flushing.
func NewAccessLog(w io.Writer) *AccessLog {
	l := &AccessLog{w: bufio.NewWriterSize(w, accessBufBytes), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Write logs one request. Safe for concurrent use; a nil receiver is a
// no-op.
func (l *AccessLog) Write(rec AccessRecord) {
	if l == nil {
		return
	}
	rec.Schema = AccessLogSchema
	now := l.now()
	rec.Time = now.UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(&rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("obs: encoding access record for %s: %w", rec.Endpoint, err)
		}
		return
	}
	if l.err != nil {
		return
	}
	if _, err := l.w.Write(append(line, '\n')); err != nil {
		l.err = err
		return
	}
	l.lines++
	if now.Sub(l.lastFlush) >= accessFlushInterval {
		if err := l.w.Flush(); err != nil {
			l.err = err
			return
		}
		l.lastFlush = now
	}
}

// Lines returns how many records have been accepted.
func (l *AccessLog) Lines() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// Flush forces buffered lines to the underlying writer.
func (l *AccessLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Err returns the first write or encoding error, if any.
func (l *AccessLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes buffered lines and closes the underlying writer when it is
// closable. It returns the first error seen over the log's lifetime.
func (l *AccessLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	if l.c != nil {
		if err := l.c.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.c = nil
	}
	return l.err
}
