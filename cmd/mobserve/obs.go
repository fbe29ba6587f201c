// Observability wiring: the per-instance gauge registry behind GET
// /metrics and /healthz, the request-trace middleware with its
// per-endpoint latency histograms, and the structured slow-query log
// (DESIGN.md §12).
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux, served by -pprof-addr
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/live"
	"geomob/internal/obs"
)

// mSlowQueries counts /v1 requests that crossed the -slow-query
// threshold and were logged.
var mSlowQueries = obs.Def.Counter("geomob_slow_queries_total", "Queries slower than the -slow-query threshold.")

// registerInstanceMetrics publishes this server instance's state gauges
// on its own registry: /healthz reads them back through one Snapshot()
// so its numbers form one coherent scrape, and /metrics renders them
// after the process-global obs.Def series. routes() runs it before any
// handler can; registration is idempotent (GaugeFunc replaces the
// callback), so routes() may run repeatedly.
func (s *server) registerInstanceMetrics() {
	obs.RegisterBuildMetrics(obs.Def)
	registerRuntimeMetrics(s.obsReg)
	s.eng.registerMetrics(s.obsReg)
}

// registerShardMetrics publishes one LocalShard's instance gauges — its
// store, its ring and, with a snapshot directory, its snapshot set — on a
// single node and a -cluster-shard node alike.
func registerShardMetrics(r *obs.Registry, shard *cluster.LocalShard) {
	store, agg, snaps := shard.Store(), shard.Ring(), shard.Snapshots()
	r.GaugeFunc("geomob_store_tweets", "Durable records in this instance's store.",
		func() float64 { return float64(store.Count()) })
	r.GaugeFunc("geomob_live_buckets", "Live buckets materialised in the ring.",
		func() float64 { return float64(agg.Buckets()) })
	registerResidentMetrics(r, agg.ResidentBytes)
	if snaps == nil {
		return
	}
	r.GaugeFunc("geomob_snapshot_buckets", "Buckets present in the durable snapshot set.",
		func() float64 { return float64(snaps.Stats().Buckets) })
	r.GaugeFunc("geomob_snapshot_bytes", "Bytes held by the durable snapshot set.",
		func() float64 { return float64(snaps.Stats().Bytes) })
	r.GaugeFunc("geomob_snapshot_written", "Snapshot files written since boot.",
		func() float64 { return float64(snaps.Stats().Written) })
	r.GaugeFunc("geomob_snapshot_last_unix_ms", "Wall time of the last snapshot commit (ms since epoch).",
		func() float64 { return float64(snaps.Stats().LastUnixMs) })
}

// registerResidentMetrics publishes what this process's rings hold on
// the heap, by kind: one ring's ResidentBytes on a single node or a
// shard node, the sum over the in-process shards under -partitions.
func registerResidentMetrics(r *obs.Registry, resident func() live.ResidentBytes) {
	const name, help = "geomob_ring_resident_bytes", "Heap bytes held by the bucket rings, by kind (raw record columns, bucket partials, rollup merges)."
	r.GaugeFunc(name, help, func() float64 { return float64(resident().Records) }, "kind", "records")
	r.GaugeFunc(name, help, func() float64 { return float64(resident().Partials) }, "kind", "partials")
	r.GaugeFunc(name, help, func() float64 { return float64(resident().Rollups) }, "kind", "rollups")
}

// registerRuntimeMetrics publishes the Go runtime's own memory and
// scheduler readings (runtime/metrics). The process's RSS follows the
// GC's heap goal at its peak, not the live heap, so the two are exported
// side by side with the ring's resident bytes: live ≈ resident means the
// ring is the heap, goal ≫ live means the RSS is headroom.
func registerRuntimeMetrics(r *obs.Registry) {
	read := func(name string) metrics.Value {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return s[0].Value
	}
	u64 := func(name string) func() float64 {
		return func() float64 {
			if v := read(name); v.Kind() == metrics.KindUint64 {
				return float64(v.Uint64())
			}
			return 0
		}
	}
	r.GaugeFunc("geomob_go_heap_live_bytes", "Heap bytes live after the last garbage collection.", u64("/gc/heap/live:bytes"))
	r.GaugeFunc("geomob_go_heap_goal_bytes", "Heap size the garbage collector aims to stay under.", u64("/gc/heap/goal:bytes"))
	r.GaugeFunc("geomob_go_goroutines", "Live goroutines.", u64("/sched/goroutines:goroutines"))
	r.GaugeFunc("geomob_go_gc_pause_p99_seconds", "99th percentile stop-the-world GC pause since process start.", func() float64 {
		v := read("/sched/pauses/total/gc:seconds")
		if v.Kind() != metrics.KindFloat64Histogram {
			return 0
		}
		return histogramQuantile(v.Float64Histogram(), 0.99)
	})
}

// histogramQuantile returns the upper bound of the bucket holding the
// q-quantile of a runtime/metrics histogram (0 when it is empty).
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank, seen := uint64(math.Ceil(q*float64(total))), uint64(0)
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// bootClock attributes the time from process start to the listening
// socket to named phases — store_open, shape, recover (snapshot restore
// plus tail replay, or the cold backfill), listen. Every mark charges the
// time since the previous one, so the phases are read off one clock and
// sum to the boot's wall time; each is exported as
// geomob_boot_seconds{phase=...}.
type bootClock struct {
	start, last time.Time
	names       []string // phases in the order first marked
	spent       map[string]time.Duration
}

func newBootClock() *bootClock {
	now := time.Now()
	return &bootClock{start: now, last: now, spent: map[string]time.Duration{}}
}

// mark closes the phase that began at the previous mark and returns its
// duration. A phase marked again (one store per partition) accumulates.
func (c *bootClock) mark(phase string) time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	if _, seen := c.spent[phase]; !seen {
		c.names = append(c.names, phase)
	}
	c.spent[phase] += d
	obs.Def.Gauge("geomob_boot_seconds", "Seconds this process's boot spent in each phase.", "phase", phase).Set(c.spent[phase].Seconds())
	return d
}

// total is the time from process start to the last mark.
func (c *bootClock) total() time.Duration { return c.last.Sub(c.start) }

func (c *bootClock) String() string {
	parts := make([]string, len(c.names))
	for i, name := range c.names {
		parts[i] = fmt.Sprintf("%s %.3fs", name, c.spent[name].Seconds())
	}
	return strings.Join(parts, ", ")
}

// buildBlock is the /healthz build-and-uptime report.
func buildBlock() map[string]any {
	b := obs.Build()
	return map[string]any{
		"version":        b.Version,
		"revision":       b.Revision,
		"modified":       b.Modified,
		"go":             b.GoVersion,
		"uptime_seconds": obs.Uptime().Seconds(),
	}
}

// durationHistogram is one endpoint's end-to-end latency series.
func durationHistogram(endpoint string) *obs.Histogram {
	return obs.Def.Histogram("geomob_query_duration_seconds", "End-to-end latency of one query endpoint request.", nil, "endpoint", endpoint)
}

// traced wraps a query handler with the request-scoped trace: the
// X-Geomob-Trace header (or a fresh random ID) becomes the context
// trace carried through the engine's query into the coordinator and its
// shard hops, the endpoint's end-to-end latency lands in
// geomob_query_duration_seconds{endpoint=...}, and any request slower
// than -slow-query logs one structured line with the per-stage
// breakdown. The request's stage clock over path, one of the engine's
// two, rides the context to the engine; closing it after the handler
// books the remainder — a GET's encode (parsing, explain, JSON encode and
// write) or an ingest's decode — so the trace's stages sum to its total.
func (s *server) traced(endpoint string, path *obs.Path, h http.HandlerFunc) http.HandlerFunc {
	hist := durationHistogram(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		st := path.Start(tr)
		w.Header().Set(obs.TraceHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(obs.WithStages(obs.WithTrace(r.Context(), tr), st)))
		d := st.Close()
		hist.Observe(d.Seconds())
		slow := s.slowQuery > 0 && d >= s.slowQuery
		if slow {
			mSlowQueries.Inc()
			logSlowQuery(endpoint, r.URL.RequestURI(), tr)
		}
		s.traces.Add(obs.TraceRecord{
			ID:       tr.ID,
			Endpoint: endpoint,
			URL:      r.URL.RequestURI(),
			Status:   sw.status,
			Start:    start.UTC(),
			TotalMs:  float64(d) / float64(time.Millisecond),
			Stages:   tr.Stages(),
			Slow:     slow,
			Error:    sw.status >= 500,
		})
	}
}

// statusWriter captures the response status for trace retention.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handleTracesList serves GET /debug/traces: retained completed traces,
// newest first, bounded by ?limit (default 100).
func (s *server) handleTracesList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	traces := s.traces.List(limit)
	if traces == nil {
		traces = []obs.TraceRecord{}
	}
	writeJSON(w, map[string]any{
		"retained": s.traces.Len(),
		"traces":   traces,
	})
}

// handleTraceGet serves GET /debug/traces/{id}: one retained trace by
// the ID that slow-query log lines, X-Geomob-Trace echoes and 503
// bodies carry.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.traces.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no retained trace %q (the store keeps the most recent %d, slow/error preferentially)", id, s.traces.Len())
		return
	}
	writeJSON(w, rec)
}

// latencyBlock is /healthz's quantile summary over the endpoint latency
// histograms and the stages of the given paths — the ones this process
// books — the p50/p95/p99 an operator wants before reaching for raw
// histogram buckets. The histograms are registered at route
// construction (endpoints) and package init (stages), so the lookups
// here re-fetch existing series and never create empty ones.
func latencyBlock(paths ...*obs.Path) map[string]any {
	quantiles := func(h *obs.Histogram) map[string]float64 {
		return map[string]float64{
			"p50_ms": h.Quantile(0.50) * 1000,
			"p95_ms": h.Quantile(0.95) * 1000,
			"p99_ms": h.Quantile(0.99) * 1000,
		}
	}
	query := map[string]any{"ingest": quantiles(durationHistogram("ingest"))}
	for _, ep := range v1Endpoints {
		query[ep.path] = quantiles(durationHistogram(ep.path))
	}
	stages := map[string]any{}
	for _, p := range paths {
		for _, st := range p.Stages {
			stages[st.Name] = quantiles(st.Hist)
		}
	}
	return map[string]any{"query": query, "stages": stages}
}

// logSlowQuery emits one structured JSON line on the standard logger
// (stderr) with the trace ID and per-stage timings, greppable as
// `"slow_query":true`.
func logSlowQuery(endpoint, uri string, tr *obs.Trace) {
	entry := map[string]any{
		"slow_query": true,
		"trace_id":   tr.ID,
		"endpoint":   endpoint,
		"url":        uri,
		"total_ms":   float64(tr.Total().Microseconds()) / 1000,
		"stages":     tr.Stages(),
	}
	b, err := json.Marshal(entry)
	if err != nil {
		log.Printf("slow query trace=%s endpoint=%s total=%v", tr.ID, endpoint, tr.Total())
		return
	}
	log.Printf("%s", b)
}
