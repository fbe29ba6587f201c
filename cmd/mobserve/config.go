package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/obs"
	"geomob/internal/wal"
)

// config is the validated command line. Three process shapes come out of
// it: a ring engine over -db (the default), a coordinator engine
// (-partitions over -db, or -cluster-coordinator over remote nodes), and
// a shard node (-cluster-shard) serving the internal shard API.
type config struct {
	db      string
	addr    string
	workers int
	drain   time.Duration
	bucket  time.Duration

	maxIngestBytes int64

	shardNode   bool
	shardURLs   []string // -cluster-coordinator, split and trimmed
	partitions  int
	replication int
	walDir      string

	snapDir   string
	snapEvery time.Duration

	slowQuery   time.Duration
	traceRetain int
	pprofAddr   string
	showVersion bool
}

// coordinator reports whether the process fronts shards instead of
// owning one ring.
func (c config) coordinator() bool { return len(c.shardURLs) > 0 || c.partitions > 0 }

// parseConfig parses and validates the command line without touching the
// process: every rejection comes back as an error naming the flag. The
// library constructors keep their own clamps for library callers; a
// command line that would be silently altered is refused here instead.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("mobserve", flag.ContinueOnError)
	fs.StringVar(&c.db, "db", "", "tweetdb store directory (required except with -cluster-coordinator)")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.workers, "workers", 0, "parallel workers of the exact in-memory pass that answers custom radii (0 = one per CPU)")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.Bool("live", false, "no effect: the bucket ring always serves /v1. Accepted only because the frozen bench/ harness and the smoke scripts pass it; goes once they stop")
	fs.DurationVar(&c.bucket, "bucket", time.Hour, "bucket width of the ring (single node, -cluster-shard and -partitions)")
	fs.Int64Var(&c.maxIngestBytes, "max-ingest-bytes", cluster.DefaultMaxBodyBytes, "maximum POST /v1/ingest request body in bytes (oversized uploads answer 413)")

	coordsTo := fs.String("cluster-coordinator", "", "comma-separated shard node base URLs; serve /v1 by scatter-gather across them (no local -db)")
	fs.BoolVar(&c.shardNode, "cluster-shard", false, "serve the internal shard API (/shard/v1/*) over -db instead of the public endpoints")
	fs.IntVar(&c.partitions, "partitions", 0, "in-process user partitions under -db (per-partition ingest parallelism without the network hop)")
	fs.IntVar(&c.replication, "replication", 1, "copies of every user-range slot across the cluster (with -cluster-coordinator or -partitions)")
	fs.StringVar(&c.walDir, "wal-dir", "", "durable ingest spool directory: /v1/ingest acks only after the write-ahead append, and unacknowledged deliveries replay across coordinator restarts")

	fs.StringVar(&c.snapDir, "snapshot-dir", "", "durable bucket-partial snapshot directory (any mode with a local -db): restart restores intact buckets and replays only the store tail")
	fs.DurationVar(&c.snapEvery, "snapshot-interval", 0, "periodic snapshot commit interval (0 disables; needs -snapshot-dir); a final snapshot is always flushed on graceful drain")

	fs.DurationVar(&c.slowQuery, "slow-query", 0, "log /v1 queries slower than this as one structured line with trace ID and per-stage timings (0 disables)")
	fs.IntVar(&c.traceRetain, "trace-retain", obs.DefaultTraceCapacity, "completed request traces retained for GET /debug/traces (slow and error traces kept preferentially)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this extra address (empty disables)")
	fs.BoolVar(&c.showVersion, "version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return config{}, err // the flag package has already reported it, with the usage
	}
	if c.showVersion {
		return c, nil
	}
	for _, base := range strings.Split(*coordsTo, ",") {
		if base = strings.TrimSpace(base); base != "" {
			c.shardURLs = append(c.shardURLs, base)
		}
	}

	if c.partitions < 0 || c.partitions > wal.MaxNodes {
		return config{}, fmt.Errorf("-partitions must be between 0 and %d, got %d", wal.MaxNodes, c.partitions)
	}
	if *coordsTo != "" && len(c.shardURLs) == 0 {
		return config{}, errors.New("-cluster-coordinator lists no shard URLs")
	}
	if len(c.shardURLs) > wal.MaxNodes {
		return config{}, fmt.Errorf("-cluster-coordinator lists %d shard URLs, more than the %d members a cluster can have", len(c.shardURLs), wal.MaxNodes)
	}
	modes := 0
	for _, on := range []bool{c.shardNode, len(c.shardURLs) > 0, c.partitions > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return config{}, errors.New("-cluster-shard, -cluster-coordinator and -partitions are mutually exclusive")
	}
	if c.coordinator() {
		members := max(len(c.shardURLs), c.partitions)
		if c.replication < 1 || c.replication > members {
			return config{}, fmt.Errorf("-replication must be between 1 and the %d members, got %d", members, c.replication)
		}
	} else {
		if c.replication != 1 {
			return config{}, errors.New("-replication needs -cluster-coordinator or -partitions")
		}
		if c.walDir != "" {
			return config{}, errors.New("-wal-dir needs -cluster-coordinator or -partitions")
		}
	}
	if c.db == "" && len(c.shardURLs) == 0 {
		return config{}, errors.New("-db is required")
	}
	if c.maxIngestBytes <= 0 {
		return config{}, fmt.Errorf("-max-ingest-bytes must be > 0, got %d (every ingest would answer 413)", c.maxIngestBytes)
	}
	if c.snapEvery < 0 {
		return config{}, errors.New("-snapshot-interval must be >= 0")
	}
	if c.snapEvery > 0 && c.snapDir == "" {
		return config{}, errors.New("-snapshot-interval needs -snapshot-dir")
	}
	if c.snapDir != "" && len(c.shardURLs) > 0 {
		return config{}, errors.New("-snapshot-dir needs a local store; the remote shard nodes own their own snapshot dirs")
	}
	return c, nil
}
