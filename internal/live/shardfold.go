package live

import (
	"fmt"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/mobility"
)

// This file is the live subsystem's contribution to the cluster scale-out
// (internal/cluster, DESIGN.md §8): a shard node answers a scatter query
// not with an assembled Result but with a ShardPartial — its own folded
// observer state at per-user granularity — which the coordinator merges
// with the user-disjoint partials of the other shards.

// UserTrajectory is one user's folded trajectory statistics over a
// request window — fixed width, five numbers. A user-hash-partitioned
// cluster keeps each user's records whole on one shard, so the owning
// shard finishes every per-user value itself, the radius included; but
// the global stream order interleaves the users of all shards by
// ascending id, so the rows travel per user and FlattenUsers
// re-interleaves them into the flat Table I series a single-node pass
// emits, bit for bit.
type UserTrajectory struct {
	// ID is the user id; Tweets the user's in-window record count.
	ID     int64
	Tweets int64
	// DistinctCells is the user's distinct ~5 km geohash cell count
	// (Table I "locations").
	DistinctCells int64
	// WaitMs is the sum of the user's Tweets − 1 waiting times: last −
	// first tweet time, in milliseconds.
	WaitMs int64
	// GyrationKM is the user's radius of gyration
	// (mobility.GyrationRadiusKM over the exact unit-vector sum).
	GyrationKM float64
}

// FlattenUsers interleaves user-disjoint runs of per-user rows, each
// ascending by id, into the trajectory statistics of a pass that observed
// tweets tweets: the integer totals add, and the per-user series are
// emitted in ascending id — the canonical stream order — so the ordered
// float reductions downstream (the mean radius) see one order on every
// backend. A user id present in two runs violates the partitioning
// contract and is reported as an error rather than double-counted.
func FlattenUsers(tweets int64, runs ...[]UserTrajectory) (*mobility.Stats, error) {
	st := &mobility.Stats{Tweets: int(tweets)}
	heads := make([]int, len(runs))
	for {
		best := -1
		for ri, run := range runs {
			if heads[ri] == len(run) {
				continue
			}
			if best < 0 || run[heads[ri]].ID < runs[best][heads[best]].ID {
				best = ri
			} else if run[heads[ri]].ID == runs[best][heads[best]].ID {
				return nil, fmt.Errorf("live: flatten: user %d present in runs %d and %d — partitioning contract violated",
					run[heads[ri]].ID, best, ri)
			}
		}
		if best < 0 {
			return st, nil
		}
		u := &runs[best][heads[best]]
		heads[best]++
		st.Users++
		st.WaitMs += u.WaitMs
		st.TweetsPerUser = append(st.TweetsPerUser, float64(u.Tweets))
		st.CellsPerUser = append(st.CellsPerUser, float64(u.DistinctCells))
		st.GyrationKM = append(st.GyrationKM, u.GyrationKM)
	}
}

// ShardPartial is the scatter-gather unit of internal/cluster: the folded
// observer state of one aggregator — one user partition — over one request
// window. The aggregate fields ride the embedded core.FoldedPass, whose
// additive pieces (tweet count, span, per-area unique-user counts, flow
// matrices) merge exactly across user-disjoint shards; Stats stays nil and
// the trajectory statistics travel per user in Users instead.
//
// Per-area unique-user counts are additive here — with no bitset on the
// wire — precisely because the partitioner keeps users whole: each user is
// counted toward an area by exactly one shard, so the per-shard count
// vectors sum to the global ones.
type ShardPartial struct {
	core.FoldedPass
	// Scales are the request plan's scales in plan order — the canonical
	// iteration order of the Counts and Flows maps for wire codecs.
	Scales []census.Scale
	// Users holds the per-user trajectory state in ascending id order.
	// Nil unless the plan wants stats.
	Users []UserTrajectory
	// Coverage is the shard's bucket-coverage accounting for this fold
	// (rollup-tier groups, full buckets, residual edge records) — free
	// to record during the fold, carried on the wire for EXPLAIN
	// ANALYZE's per-shard breakdown (DESIGN.md §13).
	Coverage FoldCoverage
}

// FoldPartial folds the materialised partials covering req's window into
// the shard partial a cluster coordinator merges. Like Query it touches no
// storage and reuses every covered bucket's materialised partial; unlike
// Query it stops before assembly, leaving the trajectory statistics at
// per-user granularity so user-disjoint shard partials can be interleaved
// exactly. Shapes the aggregator does not materialise answer ErrNotCovered
// and windows below the eviction floor ErrEvicted, exactly like Query.
func (a *Aggregator) FoldPartial(req core.Request) (*ShardPartial, error) {
	info, err := core.PlanRequest(req)
	if err != nil {
		return nil, err
	}
	if err := a.covers(info); err != nil {
		return nil, err
	}
	lo, hi := window(info)
	var cov FoldCoverage
	parts, err := a.collectCov(lo, hi, &cov, false)
	if err != nil {
		return nil, err
	}
	fp, users := a.foldInto(info, parts)
	return &ShardPartial{
		FoldedPass: *fp,
		Scales:     append([]census.Scale(nil), info.Scales...),
		Users:      users,
		Coverage:   cov,
	}, nil
}
