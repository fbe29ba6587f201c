// The engine seam (DESIGN.md §13): what answers /v1 and absorbs ingest
// behind the handlers. There are two — the ring engine, one LocalShard
// behind a cache, and the coordinator engine, scatter-gather over shards
// — and the handlers cannot tell them apart, the same way a
// cluster.Coordinator cannot tell a LocalShard from an HTTPShard. This is
// the only file of the command that opens storage, all of it through
// shardOpener.
package main

import (
	"context"
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
	// reports a hit. ctx carries the request's stage clock over the
	// engine's query path, into which the engine books its stages, and
	// any explain carrier, into which it records the cache disposition.
	// Computations run under the engine's lifetime, not the request's:
	// several requests may wait on one.
	query(ctx context.Context, req core.Request) (res *core.Result, cached bool, err error)
	// paths are the stage paths a query and an ingest book through
	// (DESIGN.md §12); the query path's remainder is encode.
	paths() (query, ingest *obs.Path)
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
	open := shardOpener(cfg, boot)
	if !cfg.coordinator() {
		shard, err := open("live aggregation on", cfg.db, cfg.snapDir)
		if err != nil {
			return nil, err
		}
		rec := recoveryReport{RecoveryStats: shard.Recovery(), Seconds: boot.spent["recover"].Seconds()}
		return &ringEngine{shard: shard, cache: svcache.New(0), recovery: rec}, nil
	}
	var shards []cluster.Shard
	var locals []*cluster.LocalShard
	for _, base := range cfg.shardURLs {
		shards = append(shards, cluster.NewHTTPShard(base, nil))
	}
	for i := 0; i < cfg.partitions; i++ {
		part := fmt.Sprintf("part-%03d", i)
		snapDir := ""
		if cfg.snapDir != "" {
			snapDir = filepath.Join(cfg.snapDir, part)
		}
		shard, err := open("partition "+part, filepath.Join(cfg.db, part), snapDir)
		if err != nil {
			return nil, err
		}
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

// shardOpener returns the one opener of this process's LocalShards — a
// single node's, a -cluster-shard node's and every -partitions member's.
// Each call opens the store at db, builds the shard over it (its ring
// backfilled, or with snapDir restored plus a tail replay, DESIGN.md
// §11), marks store_open and recover on the boot clock and logs what the
// boot did under name. The first call also builds the process's one
// Shape (boot mark shape), whose grid resolvers every ring shares.
func shardOpener(cfg config, boot *bootClock) func(name, db, snapDir string) (*cluster.LocalShard, error) {
	var sh *live.Shape
	return func(name, db, snapDir string) (*cluster.LocalShard, error) {
		store, err := tweetdb.Open(db)
		if err != nil {
			return nil, err
		}
		boot.mark("store_open")
		if sh == nil {
			if sh, err = live.NewShape(live.Options{BucketWidth: cfg.bucket}); err != nil {
				return nil, err
			}
			boot.mark("shape")
		}
		shard, err := cluster.NewLocalShardSnap(store, sh, snapDir)
		if err != nil {
			return nil, err
		}
		boot.mark("recover")
		agg := shard.Ring()
		if snapDir == "" {
			log.Printf("%s: %d records backfilled into %d buckets of %v (boot: %v)",
				name, agg.Ingested(), agg.Buckets(), cfg.bucket, boot)
		} else {
			rec := shard.Recovery()
			log.Printf("%s: %d buckets restored, %d backfilled (full rescan: %v, tail %d records) into %d buckets of %v (boot: %v)",
				name, rec.Restored, rec.Backfilled, rec.FullRescan, rec.TailRecords, agg.Buckets(), cfg.bucket, boot)
		}
		return shard, nil
	}
}

// openShardNode builds the -cluster-shard process: the internal shard
// API over one store, its own /metrics, and — with a snapshot directory
// — POST /v1/snapshot, whose commit function is returned for the
// periodic loop and the drain flush (nil without one).
func openShardNode(cfg config, boot *bootClock) (http.Handler, func() (live.SnapshotStats, error), error) {
	shard, err := shardOpener(cfg, boot)("shard node", cfg.db, cfg.snapDir)
	if err != nil {
		return nil, nil, err
	}
	obs.RegisterBuildMetrics(obs.Def)
	reg := obs.NewRegistry()
	registerRuntimeMetrics(reg)
	registerShardMetrics(reg, shard)
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

// ringEngine is the single-node backend: one LocalShard — store, bucket
// ring, snapshot directory and write path, opened as a shard node opens
// its own — plus what a coordinator would otherwise put in front of it:
// the snapshot cache in front of the ring's folds and a direct feed into
// the shard's Ingestor.
type ringEngine struct {
	shard *cluster.LocalShard
	// cache memoises completed executions under keys that carry the
	// request's bucket-coverage fingerprint.
	cache *svcache.Cache
	// recovery records what boot did with the snapshot directory.
	recovery recoveryReport
}

// recoveryReport is the /healthz recovery block: what boot recovery did,
// and how long the boot clock's recover phase (snapshot restore plus tail
// replay) took.
type recoveryReport struct {
	live.RecoveryStats
	Seconds float64 `json:"seconds"`
}

// ringQueryPath is a single node's GET: cache_lookup (the coverage key
// construction), fold (a miss's Aggregator.Query, feeding
// geomob_ring_fold_seconds) and encode, the remainder.
var ringQueryPath = func() *obs.Path {
	st := cluster.QueryStages("cache_lookup", "fold", "encode")
	st[ringFold].Hist = obs.Def.Histogram("geomob_ring_fold_seconds", "Latency of a single-node miss's windowed bucket fold (collect + fold + assemble).", nil)
	return &obs.Path{Rest: ringEncode, Stages: st}
}()

const ringCacheLookup, ringFold, ringEncode = 0, 1, 2

// query folds materialised partials: an append invalidates only the
// entries whose window covers the buckets it landed in, and repeat
// queries over unchanged coverage do zero segment scans. Every request
// shape folds, a custom radius included (live.FoldSlots). The cache-key
// construction is the cache_lookup stage, the compute callback (a miss
// only) the fold stage. The cache disposition (source, hit/miss,
// coverage key) goes into any explain carrier on ctx; the key and the
// computation are exactly what the unexplained path uses.
func (e *ringEngine) query(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	st := obs.StagesFrom(ctx, ringQueryPath)
	st.Begin()
	ckey, err := e.shard.Ring().CoverageKeyRequest(req)
	if err != nil {
		return nil, false, err
	}
	st.End(ringCacheLookup)
	res, hit, err := e.cache.Get(req.Key()+"|b="+ckey, func() (*core.Result, error) {
		st.Begin()
		res, err := e.shard.Ring().Query(req)
		if err == nil {
			st.End(ringFold)
		}
		return res, err
	})
	if err == nil {
		obs.ExplainFrom(ctx).Set("cache", map[string]any{"source": "bucket_fold", "hit": hit, "coverage_key": ckey})
	}
	return res, hit, err
}

func (e *ringEngine) paths() (query, ingest *obs.Path) { return ringQueryPath, live.IngestPath }

// ingest feeds the shard's Ingestor: it commits durably to the store,
// resolves the records through the assignment hot path and appends them
// to the ring. Cached results whose windows do not cover the landed
// buckets stay warm. The live ingest stages land on ctx's trace.
func (e *ringEngine) ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error) {
	return e.shard.Ingestor().Ingest(ctx, read)
}

func (e *ringEngine) ingestReply(accepted int) (int, map[string]any) {
	return http.StatusOK, map[string]any{
		"ingested":   accepted,
		"tweets":     e.shard.Store().Count(),
		"generation": strconv.FormatUint(e.shard.Store().Generation(), 16),
		"buckets":    e.shard.Ring().Buckets(),
	}
}

func (e *ringEngine) snapshot() (live.SnapshotStats, error) { return e.shard.Snapshot() }

func (e *ringEngine) health(snap obs.Snapshot) map[string]any {
	store, agg := e.shard.Store(), e.shard.Ring()
	hits, misses := e.cache.Stats()
	resp := map[string]any{
		"status":     "ok",
		"tweets":     snap.Int("geomob_store_tweets"),
		"generation": strconv.FormatUint(store.Generation(), 16),
		"scans":      store.ScanCount(),
		"cache": map[string]int64{
			"hits":   hits,
			"misses": misses,
		},
		"live": map[string]any{
			"buckets":  snap.Int("geomob_live_buckets"),
			"width":    agg.Width().String(),
			"ingested": agg.Ingested(),
			"builds":   agg.Builds(),
			"rollups":  agg.RollupStats(),
			// What the ring holds on the heap, by kind.
			"resident_bytes": agg.ResidentBytes(),
			// Restored buckets whose records are still only in the store.
			"store_only_buckets": agg.StoreOnlyBuckets(),
		},
	}
	if e.shard.Snapshots() != nil {
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

func (e *ringEngine) registerMetrics(r *obs.Registry) { registerShardMetrics(r, e.shard) }

// explain adds the ring's dry coverage walk, which answers for hits and
// misses alike: the coverage key in the cache key pins the served entry
// to exactly the bucket revisions the walk sees now.
func (e *ringEngine) explain(req core.Request, _, blk map[string]any) {
	if cov, err := e.shard.Ring().ExplainCoverage(req); err == nil {
		blk["coverage"] = cov
	}
	if e.shard.Snapshots() != nil {
		blk["recovery"] = e.recovery
	}
}

func (e *ringEngine) routes(mux *http.ServeMux) {
	if e.shard.Snapshots() != nil {
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

// query: the coordinator books scatter/fold/merge/assemble into the
// request's stage clock itself and propagates the trace ID to remote
// shards.
func (e *coordEngine) query(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	res, hit, err := e.coord.QueryCtx(ctx, req)
	if err == nil {
		obs.ExplainFrom(ctx).Set("cache", map[string]any{"source": "cluster", "hit": hit})
	}
	return res, hit, err
}

func (e *coordEngine) paths() (query, ingest *obs.Path) {
	return cluster.QueryPath, cluster.IngestPath
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
		sum.Add(sh.Ring().ResidentBytes())
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
