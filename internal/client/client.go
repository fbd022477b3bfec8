// Package client is the typed Go client of the costd cost-model service:
// batch PRR and bitstream evaluation and NDJSON exploration and simulation
// streaming, with retry/backoff that honors the server's admission control
// (429 + Retry-After).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/service/api"
)

// Client talks to one costd instance. The zero value is not usable; call
// New.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8433".
	BaseURL string
	// HTTPClient defaults to a dedicated client (no global timeout: explore
	// streams are long-lived; use contexts for deadlines).
	HTTPClient *http.Client
	// ID is sent as X-Client-ID so the server's access log can tell callers
	// apart. Empty omits the header.
	ID string
	// MaxRetries bounds attempts per call beyond the first (default 3).
	// Retries apply to 429/503, retried with the server's Retry-After when
	// given, and to transport errors; all calls here are pure evaluations,
	// so retrying is safe.
	MaxRetries int
	// Backoff is the base of the exponential backoff between retries
	// (default 100ms, doubling per attempt, capped at 2s). Retry-After
	// overrides it when larger.
	Backoff time.Duration
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{},
		MaxRetries: 3,
		Backoff:    100 * time.Millisecond,
	}
}

// apiError is a non-2xx response decoded from the server's error body.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
}

// IsRetryable reports whether the status signals transient overload.
func (e *apiError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// startOp begins the per-call client span and guarantees the context holds a
// propagable trace position: with a tracer attached the span's own position
// is used; without one fresh IDs are minted, so every request still carries a
// traceparent and the server's access log stays correlatable with the caller.
func startOp(ctx context.Context, op string) (context.Context, *obs.Span) {
	ctx, span := obs.StartSpan(ctx, op)
	if span == nil {
		tc, _ := obs.TraceFrom(ctx)
		if tc.TraceID == "" {
			tc.TraceID = obs.NewTraceID()
		}
		if tc.SpanID == 0 {
			tc.SpanID = obs.NewSpanID()
		}
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	return ctx, span
}

// do POSTs the JSON body to path with retry/backoff, returning the response
// with a 2xx status. The caller owns resp.Body. Every attempt carries the context's
// trace position as a traceparent header; span (nil allowed) receives the
// attempt count, so retries stay visible inside the per-call span.
func (c *Client) do(ctx context.Context, span *obs.Span, path string, body []byte) (*http.Response, error) {
	maxRetries := c.MaxRetries
	if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.ID != "" {
			req.Header.Set("X-Client-ID", c.ID)
		}
		obs.Inject(ctx, req.Header)
		resp, err := c.HTTPClient.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode/100 == 2:
			span.SetAttr("attempts", attempt+1)
			return resp, nil
		default:
			ae := &apiError{Status: resp.StatusCode, Msg: readErrBody(resp.Body)}
			wait = retryAfter(resp)
			resp.Body.Close()
			lastErr = ae
			if !ae.IsRetryable() {
				return nil, ae
			}
		}
		if attempt >= maxRetries {
			span.SetAttr("attempts", attempt+1).SetAttr("failed", true)
			return nil, lastErr
		}
		if d := backoff << attempt; d > wait {
			wait = d
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// retryAfter parses the Retry-After header (seconds form) if present.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

func readErrBody(r io.Reader) string {
	var e api.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(r, 4096)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return "(no error body)"
}

// postJSON decodes a whole-body JSON response into out under a span named op
// ("client.<endpoint>").
func (c *Client) postJSON(ctx context.Context, op, path string, in, out any) error {
	ctx, span := startOp(ctx, op)
	defer span.End()
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.do(ctx, span, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	drain(resp.Body)
	return nil
}

// drainCap bounds the bytes drain reads past a reply's last value: the
// newline and chunked terminator of a well-formed costd reply, with ample
// room to spare.
const drainCap = 64 << 10

// drain reads what is left of a response body, up to drainCap bytes, before
// the caller closes it. http.Transport keeps a connection for the next call
// only if its body reached EOF before Close, and costd's chunked terminator
// often arrives in a write of its own after the last line: after a flushed
// terminal line, or after a line larger than the server's write buffer. The
// read also ends when the call's context is cancelled; a read error only
// costs the connection. Only replies read to their terminal value are
// drained: closing early is how costd learns that a stream was abandoned,
// and stops its engine.
func drain(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainCap))
}

// PRR batch-evaluates the PRR size/organization model.
func (c *Client) PRR(ctx context.Context, req *api.PRRRequest) (*api.PRRResponse, error) {
	var out api.PRRResponse
	if err := c.postJSON(ctx, "client.prr", "/v1/prr", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Bitstream batch-evaluates the bitstream size model.
func (c *Client) Bitstream(ctx context.Context, req *api.BitstreamRequest) (*api.BitstreamResponse, error) {
	var out api.BitstreamResponse
	if err := c.postJSON(ctx, "client.bitstream", "/v1/bitstream", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explore opens the NDJSON exploration stream, calling visit for every Point
// event (visit may be nil with FrontOnly requests; returning false abandons
// the stream, which cancels the server-side engine). It returns the final
// Done event. A stream that ends without one — server shutdown mid-run, or
// the connection dropping — returns an error.
func (c *Client) Explore(ctx context.Context, req *api.ExploreRequest, visit func(api.DesignPoint) bool) (*api.ExploreDone, error) {
	ctx, span := startOp(ctx, "client.explore")
	defer span.End()
	span.SetAttr("front_only", req.FrontOnly)
	if req.SyntheticN > 0 {
		span.SetAttr("synthetic_n", req.SyntheticN)
	} else {
		span.SetAttr("prms", len(req.PRMs))
	}
	return readStream(c, ctx, span, "explore", "points", req,
		func(ev *api.ExploreEvent) (string, *api.ExploreDone, bool) { return ev.Error, ev.Done, ev.Point != nil },
		func(ev *api.ExploreEvent) bool { return visit == nil || visit(*ev.Point) })
}

// Simulate opens the NDJSON simulation stream, calling visit for every
// Snapshot and Score event (visit may be nil with SummaryOnly requests;
// returning false abandons the stream, which cancels the server-side
// engine). It returns the final Done event. A stream that ends without one —
// server shutdown mid-run, or the connection dropping — returns an error.
func (c *Client) Simulate(ctx context.Context, req *api.SimulateRequest, visit func(api.SimEvent) bool) (*api.SimDone, error) {
	ctx, span := startOp(ctx, "client.simulate")
	defer span.End()
	span.SetAttr("co_explore", req.CoExplore)
	span.SetAttr("jobs", req.Mix.Jobs)
	if req.SyntheticN > 0 {
		span.SetAttr("synthetic_n", req.SyntheticN)
	} else {
		span.SetAttr("prms", len(req.PRMs))
	}
	return readStream(c, ctx, span, "simulate", "events", req,
		func(ev *api.SimEvent) (string, *api.SimDone, bool) { return ev.Error, ev.Done, true },
		func(ev *api.SimEvent) bool { return visit == nil || visit(*ev) })
}

// readStream posts req to /v1/<endpoint> and reads the NDJSON reply one
// line at a time into a reused event E. split reports an event's terminal
// error text, its Done payload D, and whether it is a progress event; a
// progress event goes to visit (false abandons the stream) and is counted
// into the span attribute named count. It returns the Done payload, or an
// error naming endpoint — also when the stream ends without a Done event.
// A terminal Done or error line drains the body, so the connection is kept;
// an abandoned, undecodable or cancelled stream is closed where it stands.
func readStream[E, D any](c *Client, ctx context.Context, span *obs.Span, endpoint, count string, req any,
	split func(*E) (errMsg string, done *D, progress bool), visit func(*E) bool) (*D, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, span, "/v1/"+endpoint, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	n := 0
	defer func() { span.SetAttr(count, n) }()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // fronts and co-exploration Done lines can be wide
	var ev, zero E
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ev = zero
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("client: decoding stream line: %w", err)
		}
		switch msg, done, progress := split(&ev); {
		case msg != "":
			drain(resp.Body)
			return nil, fmt.Errorf("client: %s failed: %s", endpoint, msg)
		case done != nil:
			drain(resp.Body)
			return done, nil
		case progress:
			n++
			if !visit(&ev) {
				return nil, fmt.Errorf("client: %s abandoned by visitor", endpoint)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: %s stream: %w", endpoint, err)
	}
	return nil, fmt.Errorf("client: %s stream ended without a done event (cancelled?)", endpoint)
}
