package cluster

import (
	"context"
	"sort"
	"sync"

	"geomob/internal/live"
	"geomob/internal/obs"
)

// ShardExplain is one member's contribution to an EXPLAIN ANALYZE
// per-shard breakdown: which slots it served, how much it folded, how
// long the fold RPC took, and its bucket-coverage accounting as carried
// back over the partial codec (DESIGN.md §13).
type ShardExplain struct {
	Member   string            `json:"member"`
	Node     int               `json:"node"`
	Slots    int               `json:"slots"`
	Rows     int64             `json:"rows"`
	Users    int               `json:"users,omitempty"`
	FoldMs   float64           `json:"fold_ms"`
	Coverage live.FoldCoverage `json:"coverage"`
}

// ClusterExplain is the coordinator's explain section: the serving
// topology (ring version, coverage fingerprint, per-member scatter),
// failovers burned by this query, and — on a cache miss computed by
// this very request — the per-shard fold breakdown. Requests answered
// from the snapshot cache (or coalesced onto another caller's compute
// by the single-flight cache) report the topology but no shard folds:
// no folds happened on their behalf.
type ClusterExplain struct {
	RingVersion string         `json:"ring_version"`
	Fingerprint string         `json:"coverage_fingerprint"`
	Members     int            `json:"members"`
	Failovers   int            `json:"failovers"`
	Shards      []ShardExplain `json:"shards,omitempty"`
}

// shardExplainRecorder accumulates per-shard fragments across the
// concurrent partial fetches of one query. A nil recorder (explain not
// requested) records nothing, keeping the plain path free of it.
type shardExplainRecorder struct {
	mu    sync.Mutex
	frags []ShardExplain
}

func newShardExplainRecorder(ctx context.Context) *shardExplainRecorder {
	if obs.ExplainFrom(ctx) == nil {
		return nil
	}
	return &shardExplainRecorder{}
}

func (r *shardExplainRecorder) add(node int, slots []int, ps []*live.ShardPartial, foldMs float64) {
	if r == nil {
		return
	}
	fe := ShardExplain{Member: memberName(node), Node: node, Slots: len(slots), FoldMs: foldMs}
	for _, p := range ps {
		fe.Rows += p.Tweets
		fe.Users += len(p.Users)
		fe.Coverage.Merge(p.Coverage)
	}
	r.mu.Lock()
	r.frags = append(r.frags, fe)
	r.mu.Unlock()
}

func (r *shardExplainRecorder) fragments() []ShardExplain {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]ShardExplain(nil), r.frags...)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// MetricsScraper is the optional Shard capability /metrics/cluster
// federates over: fetching the member's raw metrics exposition.
// HTTPShard implements it; in-process LocalShards do not (their series
// already live in the coordinator process's own registries).
type MetricsScraper interface {
	ScrapeMetrics(ctx context.Context) ([]byte, error)
}

// Federate concurrently scrapes every member's metrics endpoint for
// /metrics/cluster. The result always has one entry per member, in
// member order: a reachable scraper carries its exposition body, a
// failed scrape its error (rendered as geomob_member_up 0 by
// obs.MergeExpositions), and an in-process member an empty body — up,
// contributing no remote series.
func (c *Coordinator) Federate(ctx context.Context) []obs.ScrapeResult {
	out := make([]obs.ScrapeResult, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		out[i].Node = memberName(i)
		sc, ok := c.shards[i].(MetricsScraper)
		if !ok {
			out[i].Body = []byte{}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Body, out[i].Err = sc.ScrapeMetrics(ctx)
		}(i)
	}
	wg.Wait()
	return out
}
