// mobserve serves the paper's analyses over HTTP from a continuous tweet
// feed: a versioned analysis API over the Study pipeline and a streaming
// ingest endpoint. It demonstrates the near-real-time deployment the
// paper motivates — an always-on service absorbing tweets and answering
// population and mobility queries from materialised time buckets
// (DESIGN.md §7), from cached snapshots whenever their bucket coverage
// has not changed.
//
// Usage:
//
//	mobserve -db /tmp/tweets.db -addr :8080 -bucket 1h
//
// Endpoints:
//
//	GET  /healthz                      liveness, ring and cache state, build, latency quantiles
//	GET  /metrics                      Prometheus exposition
//	GET  /debug/traces[/{id}]          retained request traces
//	POST /v1/ingest                    tweet batch (NDJSON, or binary frames
//	                                   under tweet.BatchContentType):
//	                                   appended to the store and routed into
//	                                   the bucket ring (202 through a
//	                                   coordinator: acknowledged once durably
//	                                   spooled, delivered to the replicas
//	                                   asynchronously)
//	POST /v1/snapshot                  force one durable snapshot commit
//	                                   (with -snapshot-dir)
//	GET  /metrics/cluster              every member's /metrics as one
//	                                   exposition (coordinator only)
//
// With -snapshot-dir, sealed bucket partials persist to per-bucket
// checksummed files (DESIGN.md §11): a restart restores intact buckets
// and replays only the store tail instead of rescanning, SIGTERM drains
// and flushes a final snapshot so a graceful restart replays nothing,
// and -snapshot-interval bounds what a crash can cost.
//
// Versioned analysis API (request-scoped executions, snapshot-cached;
// `from`/`to` are RFC3339, `radius` is metres; `explain=1` adds the plan):
//
//	GET /v1/stats?from=&to=                     Table I dataset statistics
//	GET /v1/population?scale=&from=&to=&radius= §III population estimate
//	GET /v1/models?scale=&from=&to=&radius=     §IV model comparison
//	GET /v1/flows?scale=&from=&to=&radius=      OD flow extraction
//
// /v1 answers fold precomputed bucket partials — an append invalidates
// only the cached results whose window covers the buckets it landed in,
// and repeat queries over unchanged coverage do zero segment scans. Two
// engines serve that one surface (engine.go): a single node's one shard
// over -db behind a result cache, and — with -partitions or
// -cluster-coordinator — a coordinator that scatter-gathers over shard
// rings; -cluster-shard runs one such shard node. All three open their
// shards the same way: the store is scanned once, at boot, to fill the
// ring, or the ring is restored from -snapshot-dir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geomob/internal/live"
	"geomob/internal/obs"
)

func main() {
	boot := newBootClock()
	log.SetFlags(0)
	log.SetPrefix("mobserve: ")

	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	if cfg.showVersion {
		b := obs.Build()
		rev := b.Revision
		if b.Modified {
			rev += "+dirty"
		}
		fmt.Printf("mobserve %s (revision %s, %s)\n", b.Version, rev, b.GoVersion)
		return
	}

	// SIGINT/SIGTERM cancel ctx; it is also the base context of every
	// request.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// snapFn, when set, is the process's durable snapshot commit: the
	// periodic loop and the final drain flush run through it.
	var snapFn func() (live.SnapshotStats, error)
	var handler http.Handler
	if cfg.shardNode {
		if handler, snapFn, err = openShardNode(cfg, boot); err != nil {
			log.Fatal(err)
		}
	} else {
		eng, err := openEngine(cfg, boot)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.close()
		if cfg.snapDir != "" {
			snapFn = eng.snapshot
		}
		handler = newServer(eng, cfg).routes()
	}

	// The pprof listener is separate from the service address so profile
	// endpoints are never reachable through the public port.
	if cfg.pprofAddr != "" {
		go func() {
			log.Printf("pprof on %s: %v", cfg.pprofAddr, http.ListenAndServe(cfg.pprofAddr, nil))
		}()
	}

	// The periodic snapshot loop bounds the tail a crash restart must
	// replay to at most one interval of ingest; it stops with ctx so the
	// final drain flush below is the last writer.
	if snapFn != nil && cfg.snapEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.snapEvery)
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
		Addr:         cfg.addr,
		Handler:      handler,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 120 * time.Second,
		BaseContext:  func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("serving %s on %s (listen %.3fs, %.3fs since process start)", cfg.db, cfg.addr, boot.mark("listen").Seconds(), boot.total().Seconds())

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received; draining for up to %v", cfg.drain)
		shCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
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
