// mobserve exposes a tweetdb store over HTTP: corpus statistics, windowed
// queries, density tiles, a versioned analysis API over the Study
// pipeline and a streaming NDJSON ingest endpoint. It demonstrates the
// near-real-time deployment the paper motivates — an always-on service
// absorbing a continuous tweet feed and answering population and
// mobility queries from materialised time buckets (DESIGN.md §7), from
// cached snapshots whenever their bucket coverage has not changed.
//
// Usage:
//
//	mobserve -db /tmp/tweets.db -addr :8080 -live -bucket 1h
//
// Endpoints:
//
//	GET  /healthz                      liveness, generation, scan + cache counters
//	GET  /stats                        store-level statistics (segment metadata)
//	GET  /tweets?user=ID&limit=N       tweets of one user
//	GET  /tweets?from=RFC3339&to=...   tweets in a time window
//	GET  /density.png?nx=360&ny=280    tweet density heat map
//	GET  /flows?scale=national         OD flow matrix at a scale (uncached)
//	POST /v1/ingest                    NDJSON tweet batch: appended to the
//	                                   store and routed into the bucket ring
//	                                   (202 in cluster mode: acknowledged
//	                                   once durably spooled, delivered to
//	                                   the replicas asynchronously)
//	POST /v1/snapshot                  force one durable snapshot commit
//	                                   (-snapshot-dir modes only)
//
// With -snapshot-dir, sealed bucket partials persist to per-bucket
// checksummed files (DESIGN.md §11): a restart restores intact buckets
// and replays only the store tail instead of rescanning, SIGTERM drains
// and flushes a final snapshot so a graceful restart replays nothing,
// and -snapshot-interval bounds what a crash can cost.
//
// Versioned analysis API (request-scoped Study executions, snapshot-cached;
// `from`/`to` are RFC3339, `radius` is metres):
//
//	GET /v1/stats?from=&to=                     Table I dataset statistics
//	GET /v1/population?scale=&from=&to=&radius= §III population estimate
//	GET /v1/models?scale=&from=&to=&radius=     §IV model comparison
//	GET /v1/flows?scale=&from=&to=&radius=      OD flow extraction
//
// With -live, /v1 answers fold precomputed bucket partials — an append
// invalidates only the cached results whose window covers the buckets it
// landed in, and repeat queries over unchanged coverage do zero segment
// scans. Without -live, snapshots are keyed on the store generation as
// before (any append invalidates; the store must be compacted).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/heatmap"
	"geomob/internal/live"
	"geomob/internal/mobility"
	"geomob/internal/models"
	"geomob/internal/obs"
	"geomob/internal/svcache"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

type server struct {
	store *tweetdb.Store
	// workers is the parallelism of scan-heavy handlers (/flows, /v1/*);
	// zero means one worker per CPU.
	workers int
	// cache memoises completed /v1 executions per store generation.
	cache *svcache.Cache
	// baseCtx bounds snapshot computations to the server's lifetime, not
	// to any single request: a computation may have several requests
	// waiting on it, so the first requester's disconnect must not abort
	// (and error out) everyone else's answer. Shutdown cancels it.
	baseCtx context.Context
	// agg is the live bucket ring (-live); nil keeps the classic
	// generation-keyed full-rescan path. ing is the streaming write path
	// behind POST /v1/ingest (always on; routes into agg when present).
	agg *live.Aggregator
	ing *live.Ingestor

	// snaps is the ring's durable snapshot store (-snapshot-dir in live
	// mode); recovery records what boot recovery actually did — restored
	// vs backfilled buckets, tail replay size — for /healthz. In
	// partition mode localShards holds the in-process shards instead,
	// each owning its per-slot snapshot stores.
	snaps       *live.SnapshotStore
	recovery    recoveryReport
	localShards []*cluster.LocalShard
	// boot attributes this process's start-up time to phases; main hands
	// the server the clock it started before opening the store.
	boot *bootClock

	// traces retains recent completed request traces (slow and error
	// traces with priority) for GET /debug/traces (DESIGN.md §13).
	traces *obs.TraceStore

	// coord replaces the local execution paths entirely in cluster mode
	// (-cluster-coordinator, -partitions): /v1 queries scatter-gather
	// across the shards and /v1/ingest routes by user hash.
	coord *cluster.Coordinator

	// maxIngestBytes bounds POST /v1/ingest request bodies; oversized
	// uploads (and overlong NDJSON lines) answer 413 instead of buffering
	// without bound.
	maxIngestBytes int64

	// mappers caches the default-radius area mapper per scale: the
	// gazetteer is immutable, so the grid resolver behind a mapper is
	// built once per process instead of once per /flows request.
	mapperMu sync.Mutex
	mappers  map[census.Scale]*mobility.AreaMapper

	// obsReg holds this instance's state gauges (store size, ring and
	// snapshot state, cache stats). /metrics renders it after the
	// process-global obs.Def, and /healthz assembles its numbers from one
	// coherent Snapshot() of it.
	obsReg *obs.Registry
	// slowQuery logs any traced query slower than this with its trace ID
	// and per-stage breakdown (-slow-query); zero disables.
	slowQuery time.Duration
}

// recoveryReport is the /healthz recovery block: what boot recovery did,
// and how long the boot clock's recover phase (snapshot restore plus tail
// replay) took.
type recoveryReport struct {
	live.RecoveryStats
	Seconds float64 `json:"seconds"`
}

func newServer(store *tweetdb.Store, workers int) *server {
	return &server{
		boot:           newBootClock(),
		store:          store,
		workers:        workers,
		cache:          svcache.New(0),
		baseCtx:        context.Background(),
		mappers:        map[census.Scale]*mobility.AreaMapper{},
		maxIngestBytes: cluster.DefaultMaxBodyBytes,
		obsReg:         obs.NewRegistry(),
		traces:         obs.NewTraceStore(0),
	}
}

// enableLive builds the bucket ring and backfills it from the store —
// one scan at boot, then never again: every later record arrives through
// /v1/ingest and is resolved exactly once on its way in.
func (s *server) enableLive(width time.Duration) error {
	return s.enableLiveSnap(width, "")
}

// enableLiveSnap is enableLive with a durable snapshot directory: boot
// restores every intact snapshotted bucket and replays only the store
// tail (segments appended after the last commit), degrading per bucket
// to a windowed cold backfill on any missing or corrupt file — the fast
// restart path of DESIGN.md §11. An empty dir keeps the classic full
// scan.
func (s *server) enableLiveSnap(width time.Duration, snapDir string) error {
	sh, err := live.NewShape(live.Options{BucketWidth: width})
	if err != nil {
		return err
	}
	s.boot.mark("shape")
	agg := sh.NewAggregator()
	if snapDir == "" {
		if _, err := live.Backfill(agg, s.store); err != nil {
			return err
		}
		s.boot.mark("recover")
	} else {
		snaps, err := live.OpenSnapshotStore(snapDir)
		if err != nil {
			return err
		}
		rec, err := live.Recover(agg, s.store, snaps, live.RecoverOpts{})
		if err != nil {
			return err
		}
		s.snaps = snaps
		s.recovery = recoveryReport{RecoveryStats: rec, Seconds: s.boot.mark("recover").Seconds()}
	}
	s.agg = agg
	return nil
}

// snapshotNow commits one durable snapshot of everything this process
// owns — the single-node ring through the ingest lock, or every
// in-process partition shard — and sums the stats. It backs the
// periodic loop, the shutdown flush and POST /v1/snapshot.
func (s *server) snapshotNow() (live.SnapshotStats, error) {
	if len(s.localShards) > 0 {
		var sum live.SnapshotStats
		for _, sh := range s.localShards {
			st, err := sh.Snapshot()
			if err != nil {
				return sum, err
			}
			sum.Buckets += st.Buckets
			sum.Bytes += st.Bytes
			sum.Written += st.Written
			if st.LastUnixMs > sum.LastUnixMs {
				sum.LastUnixMs = st.LastUnixMs
			}
		}
		return sum, nil
	}
	if s.snaps == nil || s.ing == nil {
		return live.SnapshotStats{}, fmt.Errorf("snapshots are not enabled (-snapshot-dir)")
	}
	return s.ing.Snapshot(s.snaps)
}

// snapshotHandler serves POST /v1/snapshot for any mode: force one
// durable snapshot commit now and report its stats — the hook the
// restart smoke test (and an operator about to SIGKILL a node) uses to
// bound the replay a restart will pay.
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

// initIngest wires the streaming write path (after enableLive, so flushed
// batches route into the ring).
func (s *server) initIngest() error {
	ing, err := live.NewIngestor(s.store, s.agg, 0)
	s.ing = ing
	return err
}

// scaleMapper returns the cached default-radius mapper for the scale,
// building it on first use.
func (s *server) scaleMapper(scale census.Scale) (*mobility.AreaMapper, error) {
	s.mapperMu.Lock()
	defer s.mapperMu.Unlock()
	if m, ok := s.mappers[scale]; ok {
		return m, nil
	}
	rs, err := census.Australia().Regions(scale)
	if err != nil {
		return nil, err
	}
	m, err := mobility.NewAreaMapper(rs, 0)
	if err != nil {
		return nil, err
	}
	s.mappers[scale] = m
	return m, nil
}

func main() {
	boot := newBootClock()
	log.SetFlags(0)
	log.SetPrefix("mobserve: ")

	var (
		dbDir    = flag.String("db", "", "tweetdb store directory (required except with -cluster-coordinator)")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "parallel segment scan workers (0 = one per CPU)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		liveMode = flag.Bool("live", false, "materialize time-bucketed aggregates; /v1 answers fold buckets instead of rescanning")
		bucket   = flag.Duration("bucket", time.Hour, "live aggregation bucket width (with -live, -cluster-shard and -partitions)")
		maxBody  = flag.Int64("max-ingest-bytes", cluster.DefaultMaxBodyBytes, "maximum POST /v1/ingest request body in bytes (oversized uploads answer 413)")

		shardMode = flag.Bool("cluster-shard", false, "serve the internal shard API (/shard/v1/*) over -db instead of the public endpoints")
		coordsTo  = flag.String("cluster-coordinator", "", "comma-separated shard node base URLs; serve /v1 by scatter-gather across them (no local -db)")
		partsN    = flag.Int("partitions", 0, "in-process user partitions under -db (implies live rings; per-partition ingest parallelism without the network hop)")
		replicas  = flag.Int("replication", 1, "copies of every user-range slot across the cluster (with -cluster-coordinator or -partitions)")
		walDir    = flag.String("wal-dir", "", "durable ingest spool directory: /v1/ingest acks only after the write-ahead append, and unacknowledged deliveries replay across coordinator restarts")

		snapDir   = flag.String("snapshot-dir", "", "durable bucket-partial snapshot directory (with -live, -cluster-shard or -partitions): restart restores intact buckets and replays only the store tail")
		snapEvery = flag.Duration("snapshot-interval", 0, "periodic snapshot commit interval (0 disables; needs -snapshot-dir); a final snapshot is always flushed on graceful drain")

		slowQuery   = flag.Duration("slow-query", 0, "log /v1 queries slower than this as one structured line with trace ID and per-stage timings (0 disables)")
		traceRetain = flag.Int("trace-retain", obs.DefaultTraceCapacity, "completed request traces retained for GET /debug/traces (slow and error traces kept preferentially)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty disables)")
		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *showVersion {
		b := obs.Build()
		rev := b.Revision
		if b.Modified {
			rev += "+dirty"
		}
		fmt.Printf("mobserve %s (revision %s, %s)\n", b.Version, rev, b.GoVersion)
		return
	}
	modes := 0
	for _, on := range []bool{*shardMode, *coordsTo != "", *partsN > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		log.Fatal("-cluster-shard, -cluster-coordinator and -partitions are mutually exclusive")
	}
	if coordMode := *coordsTo != "" || *partsN > 0; !coordMode {
		if *replicas != 1 {
			log.Fatal("-replication needs -cluster-coordinator or -partitions")
		}
		if *walDir != "" {
			log.Fatal("-wal-dir needs -cluster-coordinator or -partitions")
		}
	}
	if *snapEvery < 0 {
		log.Fatal("-snapshot-interval must be >= 0")
	}
	if *snapEvery > 0 && *snapDir == "" {
		log.Fatal("-snapshot-interval needs -snapshot-dir")
	}
	if *snapDir != "" {
		switch {
		case *coordsTo != "":
			log.Fatal("-snapshot-dir needs a local store; the remote shard nodes own their own snapshot dirs")
		case !*shardMode && *partsN == 0 && !*liveMode:
			log.Fatal("-snapshot-dir needs -live, -cluster-shard or -partitions (snapshots persist the bucket ring)")
		}
	}

	// SIGINT/SIGTERM cancel ctx; it is also the base context of every
	// request and of the snapshot computations, so in-flight store scans
	// abort instead of holding the drain hostage.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// snapFn, when set, is the mode's durable snapshot commit: the
	// periodic loop, POST /v1/snapshot and the final drain flush all run
	// through it.
	var snapFn func() (live.SnapshotStats, error)

	var handler http.Handler
	switch {
	case *shardMode:
		if *dbDir == "" {
			log.Fatal("-db is required")
		}
		store, err := tweetdb.Open(*dbDir)
		if err != nil {
			log.Fatal(err)
		}
		boot.mark("store_open")
		shard, err := cluster.NewLocalShardSnap(store, live.Options{BucketWidth: *bucket}, *snapDir)
		if err != nil {
			log.Fatal(err)
		}
		boot.mark("recover") // the shard builds its shape and hydrates its slot rings in one call
		if *snapDir == "" {
			log.Printf("shard node: %d records backfilled into %d buckets of %v (boot: %v)",
				shard.Ingested(), shard.Buckets(), *bucket, boot)
		} else {
			rec := shard.Recovery()
			log.Printf("shard node: %d buckets restored, %d backfilled (full rescan: %v, tail %d records) into %d buckets of %v (boot: %v)",
				rec.Restored, rec.Backfilled, rec.FullRescan, rec.TailRecords, shard.Buckets(), *bucket, boot)
		}
		node := cluster.NewNode(shard, cluster.NodeOptions{MaxBodyBytes: *maxBody})
		obs.RegisterBuildMetrics(obs.Def)
		reg := obs.NewRegistry()
		registerRuntimeMetrics(reg)
		registerResidentMetrics(reg, shard.ResidentBytes)
		mux := http.NewServeMux()
		mux.Handle("/", node)
		mux.Handle("GET /metrics", obs.Handler(obs.Def, reg))
		if *snapDir != "" {
			snapFn = shard.Snapshot
			mux.Handle("POST /v1/snapshot", snapshotHandler(snapFn))
		}
		handler = mux

	case *coordsTo != "", *partsN > 0:
		var shards []cluster.Shard
		var locals []*cluster.LocalShard
		if *coordsTo != "" {
			for _, base := range strings.Split(*coordsTo, ",") {
				base = strings.TrimSpace(base)
				if base == "" {
					continue
				}
				shards = append(shards, cluster.NewHTTPShard(base, nil))
			}
			if len(shards) == 0 {
				log.Fatal("-cluster-coordinator lists no shard URLs")
			}
			log.Printf("coordinator over %d remote shards", len(shards))
		} else {
			if *dbDir == "" {
				log.Fatal("-db is required")
			}
			for i := 0; i < *partsN; i++ {
				store, err := tweetdb.Open(filepath.Join(*dbDir, fmt.Sprintf("part-%03d", i)))
				if err != nil {
					log.Fatal(err)
				}
				boot.mark("store_open")
				partSnap := ""
				if *snapDir != "" {
					partSnap = filepath.Join(*snapDir, fmt.Sprintf("part-%03d", i))
				}
				shard, err := cluster.NewLocalShardSnap(store, live.Options{BucketWidth: *bucket}, partSnap)
				if err != nil {
					log.Fatal(err)
				}
				boot.mark("recover")
				if *snapDir != "" {
					locals = append(locals, shard)
				}
				shards = append(shards, shard)
			}
			log.Printf("coordinator over %d in-process partitions under %s (boot: %v)", *partsN, *dbDir, boot)
		}
		coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{
			Replication: *replicas,
			WALDir:      *walDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer coord.Close()
		s := newServer(nil, *workers)
		s.coord = coord
		s.maxIngestBytes = *maxBody
		s.baseCtx = ctx
		s.localShards = locals
		s.slowQuery = *slowQuery
		s.traces = obs.NewTraceStore(*traceRetain)
		if len(locals) > 0 {
			snapFn = s.snapshotNow
		}
		handler = s.clusterRoutes()

	default:
		if *dbDir == "" {
			log.Fatal("-db is required")
		}
		store, err := tweetdb.Open(*dbDir)
		if err != nil {
			log.Fatal(err)
		}
		boot.mark("store_open")
		s := newServer(store, *workers)
		s.boot = boot
		s.maxIngestBytes = *maxBody
		s.slowQuery = *slowQuery
		s.traces = obs.NewTraceStore(*traceRetain)
		if *liveMode {
			if err := s.enableLiveSnap(*bucket, *snapDir); err != nil {
				log.Fatal(err)
			}
			if *snapDir == "" {
				log.Printf("live aggregation on: %d records backfilled into %d buckets of %v (boot: %v)",
					s.agg.Ingested(), s.agg.Buckets(), *bucket, boot)
			} else {
				log.Printf("live aggregation on: %d buckets restored, %d backfilled (full rescan: %v, tail %d records) of %v (boot: %v)",
					s.recovery.Restored, s.recovery.Backfilled, s.recovery.FullRescan, s.recovery.TailRecords, *bucket, boot)
			}
		}
		if err := s.initIngest(); err != nil {
			log.Fatal(err)
		}
		if s.snaps != nil {
			snapFn = s.snapshotNow
		}
		s.baseCtx = ctx
		handler = s.routes()
	}

	// The pprof listener is separate from the service address so profile
	// endpoints are never reachable through the public port.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof on %s: %v", *pprofAddr, http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	// The periodic snapshot loop bounds the tail a crash restart must
	// replay to at most one interval of ingest; it stops with ctx so the
	// final drain flush below is the last writer.
	if snapFn != nil && *snapEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if st, err := snapFn(); err != nil {
						log.Printf("periodic snapshot: %v", err)
					} else if st.Written > 0 {
						log.Printf("snapshot: %d buckets (%d files written, %d bytes)", st.Buckets, st.Written, st.Bytes)
					}
				}
			}
		}()
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 120 * time.Second,
		BaseContext:  func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("serving %s on %s (listen %.3fs, %.3fs since process start)", *dbDir, *addr, boot.mark("listen").Seconds(), boot.total().Seconds())

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received; draining for up to %v", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("drain timed out: %v; closing", err)
			srv.Close()
		}
		// Final snapshot after the listener has drained: every accepted
		// ingest is in the ring, so the commit covers the whole store and
		// the next boot restores with zero tail replay.
		if snapFn != nil {
			if st, err := snapFn(); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				log.Printf("final snapshot: %d buckets (%d files written, %d bytes)", st.Buckets, st.Written, st.Bytes)
			}
		}
	}
}

// routes assembles the mux over the server's handlers.
func (s *server) routes() *http.ServeMux {
	s.registerInstanceMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Def, s.obsReg))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /tweets", s.handleTweets)
	mux.HandleFunc("GET /density.png", s.handleDensity)
	mux.HandleFunc("GET /flows", s.handleFlows)
	mux.HandleFunc("GET /v1/stats", s.traced("/v1/stats", s.handleV1Stats))
	mux.HandleFunc("GET /v1/population", s.traced("/v1/population", s.handleV1Population))
	mux.HandleFunc("GET /v1/models", s.traced("/v1/models", s.handleV1Models))
	mux.HandleFunc("GET /v1/flows", s.traced("/v1/flows", s.handleV1Flows))
	mux.HandleFunc("POST /v1/ingest", s.traced("ingest", s.handleIngest))
	mux.HandleFunc("GET /debug/traces", s.handleTracesList)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	if s.snaps != nil {
		mux.Handle("POST /v1/snapshot", snapshotHandler(s.snapshotNow))
	}
	return mux
}

// clusterRoutes is the coordinator-mode mux: the versioned analysis API
// and health only. The store-backed endpoints (/stats, /tweets,
// /density.png, /flows) have no meaning here — the records live on the
// shard nodes.
func (s *server) clusterRoutes() *http.ServeMux {
	s.registerInstanceMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Def, s.obsReg))
	mux.HandleFunc("GET /v1/stats", s.traced("/v1/stats", s.handleV1Stats))
	mux.HandleFunc("GET /v1/population", s.traced("/v1/population", s.handleV1Population))
	mux.HandleFunc("GET /v1/models", s.traced("/v1/models", s.handleV1Models))
	mux.HandleFunc("GET /v1/flows", s.traced("/v1/flows", s.handleV1Flows))
	mux.HandleFunc("POST /v1/ingest", s.traced("ingest", s.handleIngest))
	mux.HandleFunc("GET /debug/traces", s.handleTracesList)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /metrics/cluster", s.handleMetricsCluster)
	if len(s.localShards) > 0 {
		mux.Handle("POST /v1/snapshot", snapshotHandler(s.snapshotNow))
	}
	return mux
}

// scanWorkers resolves the configured scan parallelism.
func (s *server) scanWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
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
// gauges — rather than from each component ad hoc; the JSON shape is
// unchanged from before the registry existed (pinned by
// TestHealthzShape) with one addition, the "build" block.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.registerInstanceMetrics()
	snap := s.obsReg.Snapshot()
	if s.coord != nil {
		// Cluster mode: the coordinator's cache is the live one (the
		// server-level cache never sees a query).
		shards := s.coord.Health()
		degraded := false
		for _, st := range shards {
			if !st.OK || st.Degraded {
				degraded = true
			}
		}
		status := "ok"
		if degraded {
			status = "degraded"
		}
		writeJSON(w, map[string]any{
			"status":          status,
			"ring":            s.coord.RingStatus(),
			"shards":          shards,
			"ingested":        snap.Int("geomob_coord_ingested_rows"),
			"partial_fetches": snap.Int("geomob_coord_partial_fetches"),
			"cache": map[string]int64{
				"hits":   snap.Int("geomob_coord_cache_hits"),
				"misses": snap.Int("geomob_coord_cache_misses"),
			},
			"build":   buildBlock(),
			"latency": latencyBlock(),
		})
		return
	}
	resp := map[string]any{
		"status":     "ok",
		"tweets":     snap.Int("geomob_store_tweets"),
		"generation": strconv.FormatUint(s.store.Generation(), 16),
		"scans":      snap.Int("geomob_store_scans"),
		"cache": map[string]int64{
			"hits":   snap.Int("geomob_cache_hits"),
			"misses": snap.Int("geomob_cache_misses"),
		},
		"build":   buildBlock(),
		"latency": latencyBlock(),
	}
	if s.agg != nil {
		resp["live"] = map[string]any{
			"buckets":  snap.Int("geomob_live_buckets"),
			"width":    s.agg.Width().String(),
			"ingested": snap.Int("geomob_live_ingested_rows"),
			"builds":   snap.Int("geomob_live_builds"),
			"rollups":  s.agg.RollupStats(),
			// What the ring holds on the heap, by kind.
			"resident_bytes": s.agg.ResidentBytes(),
		}
	}
	if s.snaps != nil {
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
		resp["recovery"] = s.recovery
	}
	writeJSON(w, resp)
}

// handleIngest drains a tweet batch into the streaming write path:
// durably appended to the store and, with -live, routed through the
// assignment hot path into the bucket ring. Cached /v1 results whose
// windows do not cover the landed buckets stay warm. Content-Type
// selects the wire format: tweet.BatchContentType streams binary column
// frames (the hot path), anything else is read as NDJSON.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The request body is bounded (-max-ingest-bytes), NDJSON lines are
	// capped at 1 MiB by the reader and binary frames at the same body
	// bound, so one oversized upload cannot buffer the service out of
	// memory; every such violation answers 413.
	body := http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	binary := r.Header.Get("Content-Type") == tweet.BatchContentType
	var n int
	var err error
	switch {
	case s.coord != nil && binary:
		n, err = s.coord.IngestBinary(r.Context(), body, s.maxIngestBytes)
	case s.coord != nil:
		n, err = s.coord.IngestNDJSON(r.Context(), body)
	case binary:
		n, err = live.DrainBinary(body, s.maxIngestBytes, s.ing.IngestBatch, s.ing.Flush)
	default:
		n, err = s.ing.IngestNDJSON(body)
	}
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
	if s.coord != nil {
		// 202, not 200: the records are durably spooled (the coordinator's
		// acknowledgement point) and Flush has waited for every healthy
		// lane to settle, so on a healthy cluster each replica already
		// holds them — but a lane whose shard is down was not waited for:
		// its copy stays owed in the spool (pending in /healthz) and is
		// replayed when the shard returns.
		writeJSONStatus(w, http.StatusAccepted, map[string]any{
			"ingested": n,
			"shards":   s.coord.Shards(),
			"routed":   s.coord.Ingested(),
		})
		return
	}
	resp := map[string]any{
		"ingested":   n,
		"tweets":     s.store.Count(),
		"generation": strconv.FormatUint(s.store.Generation(), 16),
	}
	if s.agg != nil {
		resp["buckets"] = s.agg.Buckets()
	}
	writeJSON(w, resp)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	segs := s.store.Segments()
	var bytes int64
	box := geo.EmptyBBox()
	// A seen flag, not a zero sentinel: an empty store must not report
	// the epoch as its collection period, and a legitimate record at
	// epoch 0 must not be mistaken for "unset".
	var minTS, maxTS int64
	seen := false
	for _, seg := range segs {
		bytes += seg.Bytes
		box = box.Union(seg.BBox())
		if !seen || seg.MinTS < minTS {
			minTS = seg.MinTS
		}
		if !seen || seg.MaxTS > maxTS {
			maxTS = seg.MaxTS
		}
		seen = true
	}
	resp := map[string]any{
		"tweets":   s.store.Count(),
		"segments": len(segs),
		"bytes":    bytes,
		"bbox":     box,
		"workers":  s.scanWorkers(),
	}
	if seen {
		resp["first"] = time.UnixMilli(minTS).UTC()
		resp["last"] = time.UnixMilli(maxTS).UTC()
	}
	writeJSON(w, resp)
}

func (s *server) handleTweets(w http.ResponseWriter, r *http.Request) {
	q := tweetdb.Query{}
	if v := r.URL.Query().Get("user"); v != "" {
		uid, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad user id %q", v)
			return
		}
		q.UserID = &uid
	}
	if v := r.URL.Query().Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad from time %q", v)
			return
		}
		q.FromTS = t.UnixMilli()
	}
	if v := r.URL.Query().Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad to time %q", v)
			return
		}
		q.ToTS = t.UnixMilli()
	}
	limit := 1000
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	it := s.store.Scan(q)
	defer it.Close()
	var out []tweet.Tweet
	for len(out) < limit {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	if err := it.Err(); err != nil {
		httpError(w, http.StatusInternalServerError, "scan: %v", err)
		return
	}
	writeJSON(w, out)
}

// parseGridDim parses one density grid dimension, strict like /tweets'
// param handling: a present-but-invalid value is a 400, not a silent
// fallback to the default.
func parseGridDim(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > 2000 {
		return 0, fmt.Errorf("bad %s %q: want an integer in [1, 2000]", name, v)
	}
	return n, nil
}

func (s *server) handleDensity(w http.ResponseWriter, r *http.Request) {
	nx, err := parseGridDim(r, "nx", 360)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ny, err := parseGridDim(r, "ny", 280)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	grid, err := heatmap.NewGrid(geo.AustraliaBBox, nx, ny)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "grid: %v", err)
		return
	}
	it := s.store.Scan(tweetdb.Query{})
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		grid.Add(t.Point())
	}
	if err := it.Err(); err != nil {
		httpError(w, http.StatusInternalServerError, "scan: %v", err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	if err := grid.WritePNG(w); err != nil {
		log.Printf("density render: %v", err)
	}
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

func (s *server) handleFlows(w http.ResponseWriter, r *http.Request) {
	scale, err := parseScale(r.URL.Query().Get("scale"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mapper, err := s.scaleMapper(scale)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "mapper: %v", err)
		return
	}
	src := core.StoreSource{Store: s.store}
	flows, err := core.ExtractFlows(r.Context(), src, mapper, s.scanWorkers())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "extract: %v (store compacted?)", err)
		return
	}
	writeJSON(w, map[string]any{
		"scale":  scale.String(),
		"areas":  areaNames(flows.Areas),
		"flows":  flows.Flows,
		"total":  flows.Total(),
		"radius": mapper.Radius(),
	})
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

// executeCached answers req through the snapshot cache. In live mode the
// cache key carries the request's bucket-coverage fingerprint and the
// computation folds materialised partials — an append invalidates only
// the entries whose window covers the buckets it landed in, and repeat
// queries over unchanged coverage do zero segment scans. Shapes the ring
// does not materialise (custom radii) fall back to an exact streaming
// pass over the ring's records, still without touching the store.
// Without -live, the key carries the store generation and the
// computation is the classic store rescan. Computations run under the
// server's lifetime context, not the request's: several requests may be
// waiting on one computation, so a single client's disconnect must not
// cancel it — the pass completes, populates the snapshot, and serves
// everyone else.
// ctx carries the request trace (obs.TraceFrom): the cache-key
// construction is recorded as the cache_lookup stage, and the compute
// callback (which only runs on a miss) as the fold/scan stage; in
// cluster mode the coordinator records scatter/fold/merge/assemble
// itself and propagates the trace ID to remote shards.
func (s *server) executeCached(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	if s.coord != nil {
		// Cluster mode: the coordinator owns both the scatter-gather
		// computation and its coverage-fingerprint cache.
		res, hit, err := s.coord.QueryCtx(ctx, req)
		if err == nil {
			obs.ExplainFrom(ctx).Set("cache", map[string]any{"source": "cluster", "hit": hit})
		}
		return res, hit, err
	}
	tr := obs.TraceFrom(ctx)
	if s.agg != nil {
		endKey := tr.StartStage("cache_lookup")
		ckey, err := s.agg.CoverageKeyRequest(req)
		endKey()
		switch {
		case err == nil:
			return s.cachedGet(ctx, req.Key()+"|b="+ckey, "bucket_fold", ckey, func() (*core.Result, error) {
				defer tr.StartStage("fold")()
				return s.agg.Query(req)
			})
		case errors.Is(err, live.ErrNotCovered):
			// Key the fallback on the ring's own revision, not the store
			// generation: the computation reads the ring, and during an
			// ingest the store becomes durable momentarily before the
			// ring routes the batch — a generation key taken in that gap
			// would cache ring-stale data under a store-fresh key.
			rev := strconv.FormatUint(s.agg.Revision(), 16)
			return s.cachedGet(ctx, req.Key()+"|rr="+rev, "ring_scan", "", func() (*core.Result, error) {
				defer tr.StartStage("ring_scan")()
				tweets, err := s.agg.WindowTweetsRequest(req)
				if err != nil {
					return nil, err
				}
				study := core.NewStudyWithOptions(
					core.SliceSource(tweets),
					core.StudyOptions{Workers: s.scanWorkers()},
				)
				return study.Execute(s.baseCtx, req)
			})
		default:
			return nil, false, err
		}
	}
	gen := strconv.FormatUint(s.store.Generation(), 16)
	return s.cachedGet(ctx, req.Key()+"|g="+gen, "store_scan", "", func() (*core.Result, error) {
		defer tr.StartStage("store_scan")()
		study := core.NewStudyWithOptions(
			core.StoreSource{Store: s.store},
			core.StudyOptions{Workers: s.scanWorkers()},
		)
		return study.Execute(s.baseCtx, req)
	})
}

// writeExecuteError maps an Execute failure onto a response: an empty
// window is the caller's (absent) data, not a server fault; a cancelled
// context can only be the server shutting down (computations are bound
// to the server lifetime, not to any request), which is a 503. A shape
// the cluster's shard rings do not materialise (custom radii — the
// single-node ring falls back to an exact in-memory pass, the cluster
// does not yet; see ROADMAP) is a stated capability gap, 501, not a
// server fault.
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
	case errors.Is(err, live.ErrNotCovered):
		httpError(w, http.StatusNotImplemented,
			"this request shape is not materialized by the cluster's shard rings (custom radii need a single-node deployment): %v", err)
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

func (s *server) handleV1Stats(w http.ResponseWriter, r *http.Request) {
	req, err := parseV1Request(r, core.AnalysisStats, false)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, cached, explain, err := s.execV1(r, req)
	if err != nil {
		writeExecuteError(w, err)
		return
	}
	st := res.Stats
	resp := map[string]any{
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
		"cached":              cached,
	}
	if explain != nil {
		resp["explain"] = explain
	}
	writeJSON(w, resp)
}

func (s *server) handleV1Population(w http.ResponseWriter, r *http.Request) {
	req, err := parseV1Request(r, core.AnalysisPopulation, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, cached, explain, err := s.execV1(r, req)
	if err != nil {
		writeExecuteError(w, err)
		return
	}
	scale := req.Scales[0]
	est := res.Population[scale]
	if est == nil {
		httpError(w, http.StatusInternalServerError, "no estimate for %s", scale)
		return
	}
	rs, err := census.Australia().Regions(scale)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "regions: %v", err)
		return
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
		"cached":        cached,
	}
	if corr, err := est.Correlation(); err == nil {
		resp["pearson_log_r"] = corr.R
		resp["pearson_log_p"] = corr.P
	}
	if explain != nil {
		resp["explain"] = explain
	}
	writeJSON(w, resp)
}

func (s *server) handleV1Models(w http.ResponseWriter, r *http.Request) {
	req, err := parseV1Request(r, core.AnalysisMobility, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, cached, explain, err := s.execV1(r, req)
	if err != nil {
		writeExecuteError(w, err)
		return
	}
	scale := req.Scales[0]
	mr := res.Mobility[scale]
	if mr == nil {
		httpError(w, http.StatusInternalServerError, "no mobility result for %s", scale)
		return
	}
	fits := make([]map[string]any, 0, len(mr.Fits))
	for _, f := range mr.Fits {
		fits = append(fits, map[string]any{
			"name":    f.Name,
			"params":  f.Params,
			"metrics": f.Metrics,
		})
	}
	resp := map[string]any{
		"scale":      scale.String(),
		"total_flow": mr.TotalFlow,
		"flow_pairs": mr.FlowPairs,
		"fits":       fits,
		"cached":     cached,
	}
	if explain != nil {
		resp["explain"] = explain
	}
	writeJSON(w, resp)
}

func (s *server) handleV1Flows(w http.ResponseWriter, r *http.Request) {
	req, err := parseV1Request(r, core.AnalysisFlows, true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, cached, explain, err := s.execV1(r, req)
	if err != nil {
		writeExecuteError(w, err)
		return
	}
	scale := req.Scales[0]
	mr := res.Mobility[scale]
	if mr == nil {
		httpError(w, http.StatusInternalServerError, "no flow result for %s", scale)
		return
	}
	radius := req.Radius
	if radius == 0 {
		radius = scale.SearchRadius()
	}
	resp := map[string]any{
		"scale":  scale.String(),
		"areas":  areaNames(mr.Flows.Areas),
		"flows":  mr.Flows.Flows,
		"stays":  mr.Flows.Stays,
		"total":  mr.TotalFlow,
		"pairs":  mr.FlowPairs,
		"radius": radius,
		"cached": cached,
	}
	if explain != nil {
		resp["explain"] = explain
	}
	writeJSON(w, resp)
}
