// The engine seam (DESIGN.md §13): what answers /v1 and absorbs ingest
// behind the handlers. There are two — the ring engine, one bucket ring
// over one store, and the coordinator engine, scatter-gather over shards
// — and the handlers cannot tell them apart, the same way a
// cluster.Coordinator cannot tell a LocalShard from an HTTPShard. This is
// the only file of the command that opens storage.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/svcache"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// engine is everything the handlers need from a backend, and nothing
// else.
type engine interface {
	// query answers req through the engine's snapshot cache; cached
	// reports a hit. ctx carries the request trace, on which the engine
	// records its stages, and any explain carrier, into which it records
	// the cache disposition. Computations run under the engine's
	// lifetime, not the request's: several requests may wait on one.
	query(ctx context.Context, req core.Request) (res *core.Result, cached bool, err error)
	// ingest drains one POST /v1/ingest body, decoded into batches by
	// read, and returns the records accepted, also on failure.
	// ingestReply is the success status and body.
	ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error)
	ingestReply(accepted int) (status int, body map[string]any)
	// snapshot commits one durable snapshot of every ring the process
	// owns; it backs the periodic loop, the drain flush and POST
	// /v1/snapshot, and fails on an engine without a snapshot directory.
	snapshot() (live.SnapshotStats, error)
	// health is the engine's part of the /healthz body, its numbers read
	// from one Snapshot of the registry registerMetrics filled.
	health(snap obs.Snapshot) map[string]any
	registerMetrics(r *obs.Registry)
	// explain adds what only the engine knows to an explain block:
	// recorded holds the sections the execution left in the carrier,
	// blk["cache"] the disposition to extend.
	explain(req core.Request, recorded, blk map[string]any)
	// routes mounts the endpoints only this engine offers.
	routes(mux *http.ServeMux)
	close() error
}

// openEngine builds the engine the command line asks for, charging its
// phases to the boot clock.
func openEngine(cfg config, boot *bootClock) (engine, error) {
	if !cfg.coordinator() {
		store, err := tweetdb.Open(cfg.db)
		if err != nil {
			return nil, err
		}
		boot.mark("store_open")
		e, err := newRingEngine(store, cfg, boot)
		if err != nil {
			return nil, err
		}
		if e.snaps == nil {
			log.Printf("live aggregation on: %d records backfilled into %d buckets of %v (boot: %v)",
				e.agg.Ingested(), e.agg.Buckets(), cfg.bucket, boot)
		} else {
			log.Printf("live aggregation on: %d buckets restored, %d backfilled (full rescan: %v, tail %d records) of %v (boot: %v)",
				e.recovery.Restored, e.recovery.Backfilled, e.recovery.FullRescan, e.recovery.TailRecords, cfg.bucket, boot)
		}
		return e, nil
	}
	var shards []cluster.Shard
	var locals []*cluster.LocalShard
	for _, base := range cfg.shardURLs {
		shards = append(shards, cluster.NewHTTPShard(base, nil))
	}
	for i := 0; i < cfg.partitions; i++ {
		part := fmt.Sprintf("part-%03d", i)
		store, err := tweetdb.Open(filepath.Join(cfg.db, part))
		if err != nil {
			return nil, err
		}
		boot.mark("store_open")
		snapDir := ""
		if cfg.snapDir != "" {
			snapDir = filepath.Join(cfg.snapDir, part)
		}
		shard, err := cluster.NewLocalShardSnap(store, live.Options{BucketWidth: cfg.bucket}, snapDir)
		if err != nil {
			return nil, err
		}
		boot.mark("recover")
		locals = append(locals, shard)
		shards = append(shards, shard)
	}
	if len(locals) > 0 {
		log.Printf("coordinator over %d in-process partitions under %s (boot: %v)", len(locals), cfg.db, boot)
	} else {
		log.Printf("coordinator over %d remote shards", len(shards))
	}
	coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{
		Replication: cfg.replication,
		WALDir:      cfg.walDir,
	})
	if err != nil {
		return nil, err
	}
	return &coordEngine{coord: coord, locals: locals, snapshots: cfg.snapDir != ""}, nil
}

// openShardNode builds the -cluster-shard process: the internal shard
// API over one store, its own /metrics, and — with a snapshot directory
// — POST /v1/snapshot, whose commit function is returned for the
// periodic loop and the drain flush (nil without one).
func openShardNode(cfg config, boot *bootClock) (http.Handler, func() (live.SnapshotStats, error), error) {
	store, err := tweetdb.Open(cfg.db)
	if err != nil {
		return nil, nil, err
	}
	boot.mark("store_open")
	shard, err := cluster.NewLocalShardSnap(store, live.Options{BucketWidth: cfg.bucket}, cfg.snapDir)
	if err != nil {
		return nil, nil, err
	}
	boot.mark("recover") // the shard builds its shape and hydrates its slot rings in one call
	if cfg.snapDir == "" {
		log.Printf("shard node: %d records backfilled into %d buckets of %v (boot: %v)",
			shard.Ingested(), shard.Buckets(), cfg.bucket, boot)
	} else {
		rec := shard.Recovery()
		log.Printf("shard node: %d buckets restored, %d backfilled (full rescan: %v, tail %d records) into %d buckets of %v (boot: %v)",
			rec.Restored, rec.Backfilled, rec.FullRescan, rec.TailRecords, shard.Buckets(), cfg.bucket, boot)
	}
	obs.RegisterBuildMetrics(obs.Def)
	reg := obs.NewRegistry()
	registerRuntimeMetrics(reg)
	registerResidentMetrics(reg, shard.ResidentBytes)
	mux := http.NewServeMux()
	mux.Handle("/", cluster.NewNode(shard, cluster.NodeOptions{MaxBodyBytes: cfg.maxIngestBytes}))
	mux.Handle("GET /metrics", obs.Handler(obs.Def, reg))
	if cfg.snapDir == "" {
		return mux, nil, nil
	}
	mux.Handle("POST /v1/snapshot", snapshotHandler(shard.Snapshot))
	return mux, shard.Snapshot, nil
}

// snapshotHandler serves POST /v1/snapshot: force one durable snapshot
// commit now and report its stats — the hook the restart smoke test (and
// an operator about to SIGKILL a node) uses to bound the replay a restart
// will pay.
func snapshotHandler(snap func() (live.SnapshotStats, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		st, err := snap()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
		writeJSON(w, st)
	}
}

var errNoSnapshots = errors.New("snapshots are not enabled (-snapshot-dir)")

// ringEngine is the single-node backend: one store, the bucket ring
// materialised over it, the streaming write path into both, and the
// snapshot cache in front of the ring's folds.
type ringEngine struct {
	store *tweetdb.Store
	agg   *live.Aggregator
	ing   *live.Ingestor
	// cache memoises completed executions under keys that carry the
	// request's bucket-coverage fingerprint.
	cache *svcache.Cache
	// snaps is the ring's durable snapshot store (nil without
	// -snapshot-dir); recovery records what boot did with it.
	snaps    *live.SnapshotStore
	recovery recoveryReport
}

// recoveryReport is the /healthz recovery block: what boot recovery did,
// and how long the boot clock's recover phase (snapshot restore plus tail
// replay) took.
type recoveryReport struct {
	live.RecoveryStats
	Seconds float64 `json:"seconds"`
}

// newRingEngine builds the ring over the store and hydrates it — one
// backfill scan at boot, or with cfg.snapDir a restore of every intact
// snapshotted bucket plus a replay of only the store tail, degrading per
// bucket to a windowed cold backfill on any missing or corrupt file
// (DESIGN.md §11). Never a scan again: every later record arrives
// through ingest and is resolved exactly once on its way in.
func newRingEngine(store *tweetdb.Store, cfg config, boot *bootClock) (*ringEngine, error) {
	sh, err := live.NewShape(live.Options{BucketWidth: cfg.bucket})
	if err != nil {
		return nil, err
	}
	boot.mark("shape")
	e := &ringEngine{store: store, agg: sh.NewAggregator(), cache: svcache.New(0)}
	if cfg.snapDir == "" {
		if _, err := live.Backfill(e.agg, store); err != nil {
			return nil, err
		}
		boot.mark("recover")
	} else {
		if e.snaps, err = live.OpenSnapshotStore(cfg.snapDir); err != nil {
			return nil, err
		}
		rec, err := live.Recover(e.agg, store, e.snaps, live.RecoverOpts{})
		if err != nil {
			return nil, err
		}
		e.recovery = recoveryReport{RecoveryStats: rec, Seconds: boot.mark("recover").Seconds()}
	}
	e.ing, err = live.NewIngestor(store, e.agg, 0)
	return e, err
}

// query folds materialised partials: an append invalidates only the
// entries whose window covers the buckets it landed in, and repeat
// queries over unchanged coverage do zero segment scans. Every request
// shape folds, a custom radius included (live.FoldRings). The cache-key
// construction is the trace's cache_lookup stage, the compute callback
// (a miss only) its fold stage. The cache disposition (source, hit/miss,
// coverage key) goes into any explain carrier on ctx; the key and the
// computation are exactly what the unexplained path uses.
func (e *ringEngine) query(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	tr := obs.TraceFrom(ctx)
	endKey := tr.StartStage("cache_lookup")
	ckey, err := e.agg.CoverageKeyRequest(req)
	endKey()
	if err != nil {
		return nil, false, err
	}
	res, hit, err := e.cache.Get(req.Key()+"|b="+ckey, func() (*core.Result, error) {
		defer tr.StartStage("fold")()
		return e.agg.Query(req)
	})
	if err == nil {
		obs.ExplainFrom(ctx).Set("cache", map[string]any{"source": "bucket_fold", "hit": hit, "coverage_key": ckey})
	}
	return res, hit, err
}

// ingest commits durably to the store, resolves the records through the
// assignment hot path and appends them to the ring. Cached results whose
// windows do not cover the landed buckets stay warm. The live ingest
// stages land on ctx's trace.
func (e *ringEngine) ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error) {
	return e.ing.Ingest(ctx, read)
}

func (e *ringEngine) ingestReply(accepted int) (int, map[string]any) {
	return http.StatusOK, map[string]any{
		"ingested":   accepted,
		"tweets":     e.store.Count(),
		"generation": strconv.FormatUint(e.store.Generation(), 16),
		"buckets":    e.agg.Buckets(),
	}
}

// snapshot commits through the ingest lock, which orders every store
// append before its ring route.
func (e *ringEngine) snapshot() (live.SnapshotStats, error) {
	if e.snaps == nil {
		return live.SnapshotStats{}, errNoSnapshots
	}
	return e.ing.Snapshot(e.snaps)
}

func (e *ringEngine) health(snap obs.Snapshot) map[string]any {
	hits, misses := e.cache.Stats()
	resp := map[string]any{
		"status":     "ok",
		"tweets":     snap.Int("geomob_store_tweets"),
		"generation": strconv.FormatUint(e.store.Generation(), 16),
		"scans":      e.store.ScanCount(),
		"cache": map[string]int64{
			"hits":   hits,
			"misses": misses,
		},
		"live": map[string]any{
			"buckets":  snap.Int("geomob_live_buckets"),
			"width":    e.agg.Width().String(),
			"ingested": e.agg.Ingested(),
			"builds":   e.agg.Builds(),
			"rollups":  e.agg.RollupStats(),
			// What the ring holds on the heap, by kind.
			"resident_bytes": e.agg.ResidentBytes(),
			// Restored buckets whose records are still only in the store.
			"store_only_buckets": e.agg.StoreOnlyBuckets(),
		},
	}
	if e.snaps != nil {
		sn := map[string]any{
			"buckets": snap.Int("geomob_snapshot_buckets"),
			"bytes":   snap.Int("geomob_snapshot_bytes"),
			"written": snap.Int("geomob_snapshot_written"),
		}
		if last := snap.Int("geomob_snapshot_last_unix_ms"); last > 0 {
			sn["last"] = time.UnixMilli(last).UTC()
			sn["age_seconds"] = time.Since(time.UnixMilli(last)).Seconds()
		}
		resp["snapshot"] = sn
		resp["recovery"] = e.recovery
	}
	return resp
}

func (e *ringEngine) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("geomob_store_tweets", "Durable records in this instance's store.",
		func() float64 { return float64(e.store.Count()) })
	r.GaugeFunc("geomob_live_buckets", "Live buckets materialised in the ring.",
		func() float64 { return float64(e.agg.Buckets()) })
	registerResidentMetrics(r, e.agg.ResidentBytes)
	if e.snaps != nil {
		r.GaugeFunc("geomob_snapshot_buckets", "Buckets present in the durable snapshot set.",
			func() float64 { return float64(e.snaps.Stats().Buckets) })
		r.GaugeFunc("geomob_snapshot_bytes", "Bytes held by the durable snapshot set.",
			func() float64 { return float64(e.snaps.Stats().Bytes) })
		r.GaugeFunc("geomob_snapshot_written", "Snapshot files written since boot.",
			func() float64 { return float64(e.snaps.Stats().Written) })
		r.GaugeFunc("geomob_snapshot_last_unix_ms", "Wall time of the last snapshot commit (ms since epoch).",
			func() float64 { return float64(e.snaps.Stats().LastUnixMs) })
	}
}

// explain adds the ring's dry coverage walk, which answers for hits and
// misses alike: the coverage key in the cache key pins the served entry
// to exactly the bucket revisions the walk sees now.
func (e *ringEngine) explain(req core.Request, _, blk map[string]any) {
	if cov, err := e.agg.ExplainCoverage(req); err == nil {
		blk["coverage"] = cov
	}
	if e.snaps != nil {
		blk["recovery"] = e.recovery
	}
}

func (e *ringEngine) routes(mux *http.ServeMux) {
	if e.snaps != nil {
		mux.Handle("POST /v1/snapshot", snapshotHandler(e.snapshot))
	}
}

func (e *ringEngine) close() error { return nil }

// coordEngine is the cluster front door: queries scatter-gather across
// the coordinator's shards and ingest routes by user hash. The
// coordinator owns both the computation and its coverage-fingerprint
// cache. locals are the shards living in this process (-partitions;
// empty over remote nodes): the engine answers for their memory and,
// with snapshots on, commits their snapshot directories.
type coordEngine struct {
	coord     *cluster.Coordinator
	locals    []*cluster.LocalShard
	snapshots bool
}

// query: the coordinator records scatter/fold/merge/assemble on the
// trace itself and propagates the trace ID to remote shards.
func (e *coordEngine) query(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	res, hit, err := e.coord.QueryCtx(ctx, req)
	if err == nil {
		obs.ExplainFrom(ctx).Set("cache", map[string]any{"source": "cluster", "hit": hit})
	}
	return res, hit, err
}

func (e *coordEngine) ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error) {
	return e.coord.Ingest(ctx, read)
}

// ingestReply answers 202, not 200: the records are durably spooled (the
// coordinator's acknowledgement point) and Flush has waited for every
// healthy lane to settle, so on a healthy cluster each replica already
// holds them — but a lane whose shard is down was not waited for: its
// copy stays owed in the spool (pending in /healthz) and is replayed when
// the shard returns.
func (e *coordEngine) ingestReply(accepted int) (int, map[string]any) {
	return http.StatusAccepted, map[string]any{
		"ingested": accepted,
		"shards":   e.coord.Shards(),
		"routed":   e.coord.Ingested(),
	}
}

func (e *coordEngine) snapshot() (live.SnapshotStats, error) {
	var sum live.SnapshotStats
	if !e.snapshots {
		return sum, errNoSnapshots
	}
	for _, sh := range e.locals {
		st, err := sh.Snapshot()
		if err != nil {
			return sum, err
		}
		sum.Merge(st)
	}
	return sum, nil
}

// residentBytes sums what the in-process shards' rings hold on the heap.
func (e *coordEngine) residentBytes() live.ResidentBytes {
	var sum live.ResidentBytes
	for _, sh := range e.locals {
		sum.Add(sh.ResidentBytes())
	}
	return sum
}

func (e *coordEngine) health(snap obs.Snapshot) map[string]any {
	shards := e.coord.Health()
	status := "ok"
	for _, st := range shards {
		if !st.OK || st.Degraded {
			status = "degraded"
		}
	}
	hits, misses := e.coord.CacheStats()
	resp := map[string]any{
		"status":          status,
		"ring":            e.coord.RingStatus(),
		"shards":          shards,
		"ingested":        e.coord.Ingested(),
		"partial_fetches": e.coord.PartialFetches(),
		"cache": map[string]int64{
			"hits":   hits,
			"misses": misses,
		},
	}
	if len(e.locals) > 0 {
		resp["resident_bytes"] = e.residentBytes()
	}
	return resp
}

func (e *coordEngine) registerMetrics(r *obs.Registry) {
	if len(e.locals) > 0 {
		registerResidentMetrics(r, e.residentBytes)
	}
}

// explain surfaces the coordinator's topology section and, on the miss
// that folded, the coverage summed over the per-shard fragments.
func (e *coordEngine) explain(_ core.Request, recorded, blk map[string]any) {
	ce, ok := recorded["cluster"].(cluster.ClusterExplain)
	if !ok {
		return
	}
	blk["cluster"] = ce
	blk["cache"].(map[string]any)["coverage_fingerprint"] = ce.Fingerprint
	if len(ce.Shards) > 0 {
		var total live.FoldCoverage
		for _, sh := range ce.Shards {
			total.Merge(sh.Coverage)
		}
		blk["coverage"] = total
	}
}

func (e *coordEngine) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics/cluster", e.handleMetricsCluster)
	if e.snapshots {
		mux.Handle("POST /v1/snapshot", snapshotHandler(e.snapshot))
	}
}

// handleMetricsCluster serves GET /metrics/cluster: every member's shard
// /metrics scraped concurrently and re-rendered as one exposition with a
// node label per series plus member-up markers — a down member degrades
// to geomob_member_up{node=...} 0, never to an error response
// (DESIGN.md §13).
func (e *coordEngine) handleMetricsCluster(w http.ResponseWriter, r *http.Request) {
	results := e.coord.Federate(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.MergeExpositions(w, results); err != nil {
		log.Printf("metrics federation: %v", err)
	}
}

func (e *coordEngine) close() error { return e.coord.Close() }
