// The HTTP surface: one server over one engine. Nothing here knows which
// engine it serves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"time"

	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/models"
	"geomob/internal/obs"
	"geomob/internal/tweet"
)

type server struct {
	eng engine

	// maxIngestBytes bounds POST /v1/ingest request bodies; oversized
	// uploads (and overlong NDJSON lines) answer 413 instead of buffering
	// without bound.
	maxIngestBytes int64

	// obsReg holds this instance's state gauges (store size, ring and
	// snapshot state, cache stats). /metrics renders it after the
	// process-global obs.Def, and /healthz assembles its numbers from one
	// coherent Snapshot() of it.
	obsReg *obs.Registry
	// traces retains recent completed request traces (slow and error
	// traces with priority) for GET /debug/traces (DESIGN.md §13).
	traces *obs.TraceStore
	// slowQuery logs any traced query slower than this with its trace ID
	// and per-stage breakdown (-slow-query); zero disables.
	slowQuery time.Duration
}

func newServer(eng engine, cfg config) *server {
	return &server{
		eng:            eng,
		maxIngestBytes: cfg.maxIngestBytes,
		obsReg:         obs.NewRegistry(),
		traces:         obs.NewTraceStore(cfg.traceRetain),
		slowQuery:      cfg.slowQuery,
	}
}

// routes assembles the mux: the surface every engine serves, then
// whatever the engine offers on top.
func (s *server) routes() *http.ServeMux {
	s.registerInstanceMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Def, s.obsReg))
	query, ingest := s.eng.paths()
	for _, ep := range v1Endpoints {
		mux.HandleFunc("GET "+ep.path, s.traced(ep.path, query, s.v1(ep.analysis, ep.scaled, ep.render)))
	}
	mux.HandleFunc("POST /v1/ingest", s.traced("ingest", ingest, s.handleIngest))
	mux.HandleFunc("GET /debug/traces", s.handleTracesList)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	s.eng.routes(mux)
	return mux
}

// writeJSON writes v with the proper content type.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v under an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// handleHealthz reports liveness. Every numeric field is read back out
// of one obsReg.Snapshot() — a single coherent scrape of the instance
// gauges — rather than from each component ad hoc. The engine supplies
// its state; the build and latency blocks are the same for both.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := s.eng.health(s.obsReg.Snapshot())
	resp["build"] = buildBlock()
	resp["latency"] = latencyBlock(s.eng.paths())
	writeJSON(w, resp)
}

// handleIngest drains a tweet batch into the engine's write path.
// Content-Type selects the wire format: tweet.BatchContentType streams
// binary column frames (the hot path), anything else is read as NDJSON.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The request body is bounded (-max-ingest-bytes), NDJSON lines are
	// capped at 1 MiB by the reader and binary frames at the same body
	// bound, so one oversized upload cannot buffer the service out of
	// memory; every such violation answers 413.
	body := http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	var read func(*tweet.Batch) error
	if r.Header.Get("Content-Type") == tweet.BatchContentType {
		read = tweet.NewBatchReader(body, s.maxIngestBytes).Read
	} else {
		read = tweet.NewNDJSONReader(body).ReadBatch
	}
	n, err := s.eng.ingest(r.Context(), read)
	if err != nil {
		// The caller's records are a 400 (do not retry the payload) and
		// size-limit violations a 413; internal storage or routing
		// failures are a 500. Ingest is at-least-once: records accepted
		// before a 500 are (or will be) durable, so re-posting the same
		// payload can duplicate them — the store has no dedup.
		// Idempotent retry needs client-side resume from the accepted
		// count.
		httpError(w, cluster.IngestStatus(err), "ingest: %v (accepted %d records)", err, n)
		return
	}
	status, reply := s.eng.ingestReply(n)
	writeJSONStatus(w, status, reply)
}

// parseScale maps the scale query param onto a census scale; empty
// defaults to national.
func parseScale(v string) (census.Scale, error) {
	switch v {
	case "", "national":
		return census.ScaleNational, nil
	case "state":
		return census.ScaleState, nil
	case "metropolitan", "metro":
		return census.ScaleMetropolitan, nil
	}
	return census.ScaleNational, fmt.Errorf("unknown scale %q", v)
}

// areaNames projects the area list onto its names for JSON responses.
func areaNames(areas []census.Area) []string {
	names := make([]string, len(areas))
	for i, a := range areas {
		names[i] = a.Name
	}
	return names
}

// parseV1Request assembles the core.Request shared by the /v1 handlers
// from the scale/from/to/radius query params. Scale-independent handlers
// (stats) pass scaled=false, which rejects scale and radius instead of
// silently ignoring them — the same strictness as everywhere else, and it
// keeps meaningless parameters from fragmenting the snapshot-cache keys.
func parseV1Request(r *http.Request, analysis core.Analysis, scaled bool) (core.Request, error) {
	req := core.Request{Analyses: []core.Analysis{analysis}}
	q := r.URL.Query()
	if scaled {
		scale, err := parseScale(q.Get("scale"))
		if err != nil {
			return core.Request{}, err
		}
		req.Scales = []census.Scale{scale}
		if v := q.Get("radius"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return core.Request{}, fmt.Errorf("bad radius %q: want finite metres > 0", v)
			}
			req.Radius = f
		}
	} else {
		for _, p := range []string{"scale", "radius"} {
			if q.Get(p) != "" {
				return core.Request{}, fmt.Errorf("%s is not a parameter of this endpoint", p)
			}
		}
	}
	if v := q.Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return core.Request{}, fmt.Errorf("bad from time %q", v)
		}
		req.From = t
	}
	if v := q.Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return core.Request{}, fmt.Errorf("bad to time %q", v)
		}
		req.To = t
	}
	if !req.From.IsZero() && !req.To.IsZero() && !req.To.After(req.From) {
		return core.Request{}, fmt.Errorf("empty window [%s, %s)", q.Get("from"), q.Get("to"))
	}
	return req, nil
}

// writeExecuteError maps an Execute failure onto a response: an empty
// window is the caller's (absent) data, not a server fault; a cancelled
// context can only be the server shutting down (computations are bound
// to the server lifetime, not to any request), which is a 503.
func writeExecuteError(w http.ResponseWriter, err error) {
	var unavail *cluster.UnavailableError
	switch {
	case errors.As(err, &unavail):
		// Degraded read: some user-range slots have no live current
		// replica (the member and all its replicas are down or still
		// replaying). The data is durable in the spool and the lanes keep
		// retrying, so this heals without operator action — tell the
		// client to retry, and name exactly which user-hash ranges are
		// affected so a partial-tolerance client can re-scope.
		w.Header().Set("Retry-After", "5")
		body := map[string]any{
			"error":       "degraded: no live replica for part of the user space",
			"slots":       unavail.Slots,
			"user_ranges": unavail.UserRanges(),
			"retry_after": 5,
		}
		if unavail.TraceID != "" {
			body["trace_id"] = unavail.TraceID
		}
		writeJSONStatus(w, http.StatusServiceUnavailable, body)
	case errors.Is(err, core.ErrEmptyDataset):
		httpError(w, http.StatusNotFound, "no tweets in the requested window")
	case errors.Is(err, models.ErrInsufficientData):
		// The window holds too little data to define the estimate (a
		// model fit with too few positive flow pairs, a rescaling over
		// no users): the request is well-formed but unanswerable.
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		httpError(w, http.StatusInternalServerError, "execute: %v", err)
	}
}

// v1Endpoints are the /v1 analysis GETs. Scale-independent ones (stats)
// are not scaled: they refuse scale and radius (parseV1Request).
var v1Endpoints = []struct {
	path     string
	analysis core.Analysis
	scaled   bool
	render   func(core.Request, *core.Result) (map[string]any, error)
}{
	{"/v1/stats", core.AnalysisStats, false, renderStats},
	{"/v1/population", core.AnalysisPopulation, true, renderPopulation},
	{"/v1/models", core.AnalysisMobility, true, renderModels},
	{"/v1/flows", core.AnalysisFlows, true, renderFlows},
}

// v1 serves one /v1 endpoint: parse the request (400 on a bad one), run
// it through the engine, and write what render makes of the result (500
// on an error) with the cache disposition and, under ?explain=1, the
// explain block (explain.go).
func (s *server) v1(analysis core.Analysis, scaled bool, render func(core.Request, *core.Result) (map[string]any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := parseV1Request(r, analysis, scaled)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx := r.Context()
		var ex *obs.Explain
		if r.URL.Query().Get("explain") == "1" {
			ex = obs.NewExplain()
			ctx = obs.WithExplain(ctx, ex)
		}
		res, cached, err := s.eng.query(ctx, req)
		if err != nil {
			writeExecuteError(w, err)
			return
		}
		resp, err := render(req, res)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp["cached"] = cached
		if ex != nil {
			resp["explain"] = s.explainBlock(ctx, req, ex)
		}
		writeJSON(w, resp)
	}
}

func renderStats(_ core.Request, res *core.Result) (map[string]any, error) {
	st := res.Stats
	return map[string]any{
		"tweets":              st.Tweets,
		"users":               st.Users,
		"avg_tweets_per_user": st.AvgTweetsPerUser,
		"avg_waiting_hours":   st.AvgWaitingHours,
		"avg_locations":       st.AvgLocations,
		"heavy_users":         st.HeavyUsers,
		"mean_gyration_km":    st.MeanGyrationKM,
		"bbox":                st.BBox,
		"first":               st.First,
		"last":                st.Last,
	}, nil
}

func renderPopulation(req core.Request, res *core.Result) (map[string]any, error) {
	scale := req.Scales[0]
	est := res.Population[scale]
	if est == nil {
		return nil, fmt.Errorf("no estimate for %s", scale)
	}
	rs, err := census.Australia().Regions(scale)
	if err != nil {
		return nil, fmt.Errorf("regions: %w", err)
	}
	resp := map[string]any{
		"scale":         scale.String(),
		"radius":        est.Radius,
		"areas":         areaNames(rs.Areas),
		"twitter_users": est.TwitterUsers,
		"census":        est.Census,
		"rescaled":      est.Rescaled,
		"c":             est.C,
		"median_users":  est.MedianUsers,
	}
	if corr, err := est.Correlation(); err == nil {
		resp["pearson_log_r"] = corr.R
		resp["pearson_log_p"] = corr.P
	}
	return resp, nil
}

func renderModels(req core.Request, res *core.Result) (map[string]any, error) {
	scale := req.Scales[0]
	mr := res.Mobility[scale]
	if mr == nil {
		return nil, fmt.Errorf("no mobility result for %s", scale)
	}
	fits := make([]map[string]any, 0, len(mr.Fits))
	for _, f := range mr.Fits {
		fits = append(fits, map[string]any{
			"name":    f.Name,
			"params":  f.Params,
			"metrics": f.Metrics,
		})
	}
	return map[string]any{
		"scale":      scale.String(),
		"total_flow": mr.TotalFlow,
		"flow_pairs": mr.FlowPairs,
		"fits":       fits,
	}, nil
}

func renderFlows(req core.Request, res *core.Result) (map[string]any, error) {
	scale := req.Scales[0]
	mr := res.Mobility[scale]
	if mr == nil {
		return nil, fmt.Errorf("no flow result for %s", scale)
	}
	radius := req.Radius
	if radius == 0 {
		radius = scale.SearchRadius()
	}
	return map[string]any{
		"scale":  scale.String(),
		"areas":  areaNames(mr.Flows.Areas),
		"flows":  mr.Flows.Flows,
		"stays":  mr.Flows.Stays,
		"total":  mr.TotalFlow,
		"pairs":  mr.FlowPairs,
		"radius": radius,
	}, nil
}
