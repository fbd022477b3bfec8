package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/service/api"
)

// maxBodyBytes bounds request bodies; a full 1024-item batch fits with room.
const maxBodyBytes = 8 << 20

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.DevicesResponse{Devices: device.Descriptors()})
}

// handlePRR batch-evaluates the PRR size/organization model: one result per
// PRM, Eqs. (1)–(17).
func (s *Server) handlePRR(w http.ResponseWriter, r *http.Request) {
	var req api.PRRRequest
	dev, ok := decodeBatch(w, r, &req, func() (string, error) { return req.Device, req.Validate() })
	if !ok {
		return
	}
	s.cached(w, r, "prr", contentJSON, api.CanonicalKey("prr", &req), func() ([]byte, error) {
		resp := api.PRRResponse{Device: dev.Name, Results: make([]api.PRRResult, len(req.PRMs))}
		m := core.NewPRRModel(dev)
		for i, prm := range req.PRMs {
			out := &resp.Results[i]
			out.Name = prm.Name
			res, err := m.Estimate(prm.Req.Core())
			if err != nil {
				out.Error = err.Error()
				continue
			}
			out.OK = true
			out.Org = wireOrg(res.Org)
			out.Avail = &api.Availability{
				CLBs: res.Avail.CLBs, FFs: res.Avail.FFs, LUTs: res.Avail.LUTs,
				DSPs: res.Avail.DSPs, BRAMs: res.Avail.BRAMs,
			}
			out.RU = &api.Utilization{
				CLB: res.RU.CLB, FF: res.RU.FF, LUT: res.RU.LUT,
				DSP: res.RU.DSP, BRAM: res.RU.BRAM,
			}
			out.SizeTiles = res.Org.Size()
		}
		return json.Marshal(&resp)
	})
}

// handleBitstream batch-evaluates the bitstream size model, Eqs. (18)–(23).
func (s *Server) handleBitstream(w http.ResponseWriter, r *http.Request) {
	var req api.BitstreamRequest
	dev, ok := decodeBatch(w, r, &req, func() (string, error) { return req.Device, req.Validate() })
	if !ok {
		return
	}
	s.cached(w, r, "bitstream", contentJSON, api.CanonicalKey("bitstream", &req), func() ([]byte, error) {
		resp := api.BitstreamResponse{Device: dev.Name, Results: make([]api.BitstreamResult, len(req.Items))}
		bit := core.NewBitstreamModel(dev.Params)
		for i, item := range req.Items {
			out := &resp.Results[i]
			org := item.Core()
			if org.H <= 0 || org.W() <= 0 {
				out.Error = fmt.Sprintf("item %d: organization needs h >= 1 and at least one column", i)
				continue
			}
			out.OK = true
			out.SizeWords = bit.SizeWords(org)
			out.SizeBytes = bit.SizeBytes(org)
			out.ConfigWordsPerRow = bit.ConfigWordsPerRow(org)
			out.BRAMInitWordsPerRow = bit.BRAMInitWordsPerRow(org)
			out.ReconfigNS = estimator.Estimate(out.SizeBytes).Nanoseconds()
		}
		return json.Marshal(&resp)
	})
}

// decodeBatch reads, decodes and validates a batch request body, resolving
// its device. Errors are answered with 400 and reported via ok=false.
func decodeBatch(w http.ResponseWriter, r *http.Request, req any, validate func() (string, error)) (*device.Device, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if err := json.Unmarshal(body, req); err != nil {
		httpErr(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	devName, err := validate()
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	dev, err := device.Lookup(devName)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return dev, true
}

// cached answers a cacheable request — a pure function of its canonical
// key — through lookup; X-Cache tells whether the cache answered. A compute
// refused by a drain returns errDraining and is answered 503 (logged as
// shed=draining); any other error is a 500.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, endpoint, contentType, key string, compute func() ([]byte, error)) {
	ann := annotations(r.Context())
	ann.key = key
	resp, hit, err := s.lookup(endpoint, key, func() (any, int, error) {
		out, err := compute()
		return out, len(out), err
	})
	switch {
	case errors.Is(err, errDraining):
		ann.shed = "draining"
		httpErr(w, http.StatusServiceUnavailable, "shutting down")
	case err != nil:
		httpErr(w, http.StatusInternalServerError, err.Error())
	default:
		w.Header().Set("X-Cache", cacheState(hit))
		writeRaw(w, contentType, resp.([]byte))
	}
}

// lookup returns the response cache's value for key through lruCache.Do,
// computing it once for every identical in-flight caller. compute returns
// the value and the bytes it counts against the cache's byte bound. hit
// reports a cache answer. endpoint names the compute for the eval hook.
func (s *Server) lookup(endpoint, key string, compute func() (val any, size int, err error)) (val any, hit bool, err error) {
	return s.cache.Do(key, func() (any, int, error) {
		if s.cfg.evalHook != nil {
			s.cfg.evalHook(endpoint)
		}
		return compute()
	})
}

// cacheState names a lookup's outcome, as X-Cache and span attributes
// report it.
func cacheState(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// errDraining marks cacheable runs refused by a shutdown drain.
var errDraining = errors.New("service: draining")

// drainable is the compute of a cacheable explore or simulate request: it
// runs the engine as a registered stream, so a drain refuses it up front
// (errDraining) and otherwise waits for it. Batch computes skip it and are
// never drain-gated. The engine runs under the drain context rather than the
// first caller's request context: coalesced followers and future cache hits
// outlive that caller, so only a forced shutdown cancels the shared run. run
// returns the terminal event (ignored on error), served as one NDJSON line.
func (s *Server) drainable(streams, cancelled *obs.Counter, run func(ctx context.Context) (any, error)) ([]byte, error) {
	if !s.registerStream() {
		return nil, errDraining
	}
	defer s.unregisterStream()
	streams.Inc()
	ev, err := run(s.drainCtx)
	if err != nil {
		cancelled.Inc()
		return nil, err
	}
	out, err := json.Marshal(ev)
	return append(out, '\n'), err
}

// stream serves an NDJSON event stream. It admits the stream unless a drain
// has begun (503), records key for the access log, and calls run under a
// context that a client disconnect, a failed write or a forced shutdown
// cancels. emit writes one event line: a []byte is a line encoded in full,
// newline included, and is written as it is; any other event is encoded
// with json.Encoder. The first line, the terminal line
// and each line ev for which flushes(sent, ev) holds, sent counting lines
// from 1, are flushed, so clients see liveness without a syscall per line.
// run returns the terminal event: Done on success; on an engine error, the
// event reporting it to a still-connected client, or nil for none.
// Mid-stream there is no status code left to change, so a cancelled stream
// just ends without a terminal line.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, key string, flushes func(sent int, ev any) bool,
	streams, cancelled *obs.Counter, run func(ctx context.Context, emit func(ev any) bool) (any, error)) {
	if !s.registerStream() {
		annotations(r.Context()).shed = "draining"
		httpErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	defer s.unregisterStream()
	streams.Inc()
	annotations(r.Context()).key = key
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// A forced shutdown cuts this stream loose mid-run.
	defer context.AfterFunc(s.drainCtx, cancel)()

	w.Header().Set("Content-Type", contentNDJSON)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	sent := 0
	last, err := run(ctx, func(ev any) bool {
		if ctx.Err() != nil {
			return false
		}
		var err error
		if line, ok := ev.([]byte); ok {
			_, err = w.Write(line)
		} else {
			err = enc.Encode(ev)
		}
		if err != nil {
			cancel() // the client is gone; stop the engine
			return false
		}
		if sent++; sent == 1 || flushes(sent, ev) {
			flush()
		}
		return true
	})
	if err != nil || ctx.Err() != nil {
		cancelled.Inc()
		if last == nil || ctx.Err() != nil {
			return
		}
	}
	_ = enc.Encode(last)
	flush()
}

// handleExplore serves a branch-and-bound exploration as NDJSON: one Point
// event per priced design point (unless front_only), then a Done event with
// the exact Pareto front and engine statistics. Front-only explorations are
// pure request-to-front functions and take the cached path; point streams
// follow the request context — a client disconnect cancels the engine
// within a few hundred tree nodes. Both participate in graceful drain.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var raw api.ExploreRequest
	dev, ok := decodeBatch(w, r, &raw, func() (string, error) { return raw.Device, raw.Validate() })
	if !ok {
		return
	}
	// Price the canonicalized PRM order: permutations of the same workload
	// then produce byte-identical responses (groups reference PRMs by name),
	// share one cache key, and lay same-signature PRMs out contiguously where
	// the symmetry collapse is strongest.
	req := raw.Canonicalized()
	prms := make([]dse.PRM, 0, len(req.PRMs))
	if req.SyntheticN > 0 {
		prms = dse.SyntheticPRMs(req.SyntheticN)
	} else {
		for _, p := range req.PRMs {
			prms = append(prms, dse.PRM{Name: p.Name, Req: p.Req.Core()})
		}
	}
	e := &dse.Explorer{Device: dev, Estimator: estimator}
	opts := s.bbOptions(req.Options)
	key := api.CanonicalKey("explore", req)

	if req.FrontOnly {
		s.cached(w, r, "explore", contentNDJSON, key, func() ([]byte, error) {
			return s.drainable(s.met.exploreStreams, s.met.exploreCancelled, func(ctx context.Context) (any, error) {
				front, stats, err := e.ExploreParetoBB(ctx, prms, opts)
				return api.ExploreEvent{Done: wireDone(prms, front, stats)}, err
			})
		})
		return
	}
	// Flush the first point promptly, then in batches of 256 to keep
	// syscalls off the hot path.
	every256 := func(sent int, _ any) bool { return sent%256 == 0 }
	s.stream(w, r, key, every256, s.met.exploreStreams, s.met.exploreCancelled, func(ctx context.Context, emit func(any) bool) (any, error) {
		// Fold each sent point into the front as it goes, tagged with its
		// arrival index: the stream holds O(front) points, not every point
		// it sent, and ties keep Pareto's input order.
		var pf dse.ParetoFront
		var seq uint64
		stats, err := e.ExploreBB(ctx, prms, opts, func(dp dse.DesignPoint) bool {
			if !emit(api.ExploreEvent{Point: wirePoint(prms, dp)}) {
				return false
			}
			s.met.explorePoints.Inc()
			if dp.Feasible {
				pf.Add(dp, seq)
			}
			seq++
			return true
		})
		if err != nil || ctx.Err() != nil {
			return nil, err
		}
		// With the symmetry collapse active the stream carries only fiber
		// representatives; the Done front is always the full expansion, so
		// both explore modes report element-for-element identical fronts.
		front := dse.ExpandSymmetric(prms, pf.Points())
		stats.FrontSize = len(front)
		return api.ExploreEvent{Done: wireDone(prms, front, stats)}, nil
	})
}

// bbOptions maps wire explore options onto engine options; explorations and
// co-explorations share it, so both price the design space identically.
func (s *Server) bbOptions(o api.ExploreOptions) dse.BBOptions {
	opts := dse.BBOptions{
		Workers:         o.Workers,
		DominancePrune:  !o.DisableDominancePrune,
		DisableFitPrune: o.DisableFitPrune,
	}
	if o.Symmetry == "off" {
		opts.Symmetry = dse.SymmetryOff
	}
	if o.Memo == "off" {
		opts.Memo = dse.MemoOff
	}
	return opts
}

// wireDone assembles the stream's terminal event from an expanded front and
// the engine statistics.
func wireDone(prms []dse.PRM, front []dse.DesignPoint, stats dse.BBStats) *api.ExploreDone {
	done := &api.ExploreDone{Front: make([]api.DesignPoint, len(front)), Stats: wireStats(stats)}
	for i, dp := range front {
		done.Front[i] = *wirePoint(prms, dp)
	}
	return done
}

// wireStats maps engine statistics onto the wire form that explore and
// co-exploration Done events share.
func wireStats(stats dse.BBStats) api.ExploreStats {
	return api.ExploreStats{
		Partitions:      stats.Partitions,
		Evaluated:       stats.Evaluated,
		PrunedFit:       stats.PrunedFit,
		PrunedDominated: stats.PrunedDominated,
		GroupPricings:   stats.GroupPricings,
		FrontSize:       stats.FrontSize,
		Classes:         stats.Classes,
		OrbitsCollapsed: stats.CollapsedSymmetry,
		MemoHits:        stats.MemoHits,
		MemoMisses:      stats.MemoMisses,
		MemoEntries:     stats.MemoEntries,
	}
}

// wireOrg converts a model organization (with placement) to the wire form.
func wireOrg(o core.Organization) *api.Organization {
	return &api.Organization{
		H: o.H, WCLB: o.WCLB, WDSP: o.WDSP, WBRAM: o.WBRAM,
		Region: &api.Region{Row: o.Region.Row, Col: o.Region.Col, H: o.Region.H, W: o.Region.W},
	}
}

// wirePoint converts an engine design point to the wire form, resolving
// group member indexes to PRM names.
func wirePoint(prms []dse.PRM, dp dse.DesignPoint) *api.DesignPoint {
	out := &api.DesignPoint{
		Groups:              make([][]string, len(dp.Groups)),
		Feasible:            dp.Feasible,
		Infeasibility:       dp.Infeasibility,
		TotalTiles:          dp.TotalTiles,
		MaxBitstreamBytes:   dp.MaxBitstreamBytes,
		TotalBitstreamBytes: dp.TotalBitstreamBytes,
		WorstReconfigNS:     dp.WorstReconfig.Nanoseconds(),
		MinRU:               dp.MinRU,
	}
	for g, members := range dp.Groups {
		names := make([]string, len(members))
		for i, idx := range members {
			names[i] = prms[idx].Name
		}
		out.Groups[g] = names
	}
	return out
}

// Response content types.
const (
	contentJSON   = "application/json"
	contentNDJSON = "application/x-ndjson"
)

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", contentJSON)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRaw writes a pre-marshaled response body: a JSON batch response, or
// the single Done line of a cached explore or simulate run.
func writeRaw(w http.ResponseWriter, contentType string, raw []byte) {
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(raw)
}
