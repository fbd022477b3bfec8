package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/service/api"
)

// requestTimeout is the per-request deadline; a request that hits it fails.
const requestTimeout = 20 * time.Second

// response is one decoded costd reply.
type response struct {
	explore *api.ExploreDone
	sim     *api.SimDone
	prr     *api.PRRResponse
	bit     *api.BitstreamResponse
	// points counts the Point lines of a streamed explore.
	points int
	// lines counts NDJSON lines, Done included; a JSON body is one line.
	lines int
}

// send issues one request and returns the decoded reply, the time to its
// first line and the time to its last byte. A stream that ends without a Done
// line is an error (the typed client reports it).
func send(ctx context.Context, c *client.Client, req request) (resp response, first, total time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	line := func() {
		if resp.lines == 0 {
			first = time.Since(t0)
		}
		resp.lines++
	}
	switch {
	case req.explore != nil:
		resp.explore, err = c.Explore(ctx, req.explore, func(api.DesignPoint) bool {
			line()
			resp.points++
			return true
		})
	case req.simulate != nil:
		resp.sim, err = c.Simulate(ctx, req.simulate, func(api.SimEvent) bool {
			line()
			return true
		})
	case req.prr != nil:
		resp.prr, err = c.PRR(ctx, req.prr)
	default:
		resp.bit, err = c.Bitstream(ctx, req.bitstream)
	}
	total = time.Since(t0)
	if err != nil {
		return resp, 0, total, err
	}
	line() // the Done line, or the whole JSON body
	return resp, first, total, nil
}

// newClients returns n typed clients sharing one connection pool. Retries
// are off, so a 429 or 503 counts as a failure instead of being absorbed.
func newClients(url string, n int) []*client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: n}
	cs := make([]*client.Client, n)
	for c := range cs {
		cl := client.New(url)
		cl.HTTPClient = &http.Client{Transport: tr}
		cl.ID = fmt.Sprintf("bench-%d", c)
		cl.MaxRetries = 0
		cs[c] = cl
	}
	return cs
}

// closeClients drops the pooled keep-alive connections.
func closeClients(cs []*client.Client) {
	if len(cs) > 0 {
		cs[0].HTTPClient.CloseIdleConnections()
	}
}

// kept is one timed request and its reply, retained for the correctness
// check; pos is its index among the client's timed requests.
type kept struct {
	client, pos int
	req         request
	resp        response
}

// loadStats is the outcome of one closed-loop phase.
type loadStats struct {
	latency, first    []time.Duration
	attempted, failed int
	// elapsed runs from the phase start to the last completion.
	elapsed time.Duration
	kept    []kept
	errs    []string
}

func (s *loadStats) completed() int { return s.attempted - s.failed }

// maxErrs bounds the failure messages a phase keeps for the report.
const maxErrs = 5

// drive runs every client closed-loop over its request sequence, starting at
// index from: each sends its next request only after the previous one
// completes, like a design tool waiting on each reply. With count > 0 each
// client sends exactly count requests; otherwise clients keep sending until
// window has elapsed and the requests in flight then complete. The first
// keep replies of each client are retained.
func drive(ctx context.Context, clients []*client.Client, wl workload, seed uint64, from, count int, window time.Duration, keep int) loadStats {
	per := make([]loadStats, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for k := 0; ; k++ {
				if count > 0 && k >= count || count == 0 && time.Since(start) >= window || ctx.Err() != nil {
					break
				}
				req := wl.next(seed, c, from+k)
				resp, first, total, err := send(ctx, clients[c], req)
				st.attempted++
				if err != nil {
					st.failed++
					if len(st.errs) < maxErrs {
						st.errs = append(st.errs, fmt.Sprintf("client %d request %d (%s): %v", c, from+k, req.kind(), err))
					}
					continue
				}
				st.latency = append(st.latency, total)
				st.first = append(st.first, first)
				if k < keep {
					st.kept = append(st.kept, kept{client: c, pos: k, req: req, resp: resp})
				}
				if el := time.Since(start); el > st.elapsed {
					st.elapsed = el
				}
			}
		}(c)
	}
	wg.Wait()
	var out loadStats
	for _, st := range per {
		out.latency = append(out.latency, st.latency...)
		out.first = append(out.first, st.first...)
		out.attempted += st.attempted
		out.failed += st.failed
		out.elapsed = max(out.elapsed, st.elapsed)
		out.kept = append(out.kept, st.kept...)
		out.errs = append(out.errs, st.errs...)
	}
	return out
}

// warmUp fills the response cache with the workload's pooled requests and
// then runs the fixed-count warm-up; any failure fails the set-up.
func warmUp(ctx context.Context, clients []*client.Client, wl workload, seed uint64) error {
	if wl.prewarm != nil {
		for _, req := range wl.prewarm(seed) {
			if _, _, _, err := send(ctx, clients[0], req); err != nil {
				return fmt.Errorf("pre-warming the cache: %w", err)
			}
		}
	}
	st := drive(ctx, clients, wl, seed, 0, wl.warmup, 0, 0)
	if st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", st.failed, st.attempted, st.errs)
	}
	return nil
}
