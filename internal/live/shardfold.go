package live

import (
	"fmt"
	"hash/fnv"
	"slices"

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

// mergeUsers hands emit the rows of user-disjoint runs, each ascending by
// id, in ascending id — the canonical stream order — copying nothing, so
// callers can size their output once. A user id in two runs breaks
// the partitioning contract: an error, never a double count.
func mergeUsers(runs [][]UserTrajectory, emit func(*UserTrajectory)) error {
	for heads := slices.DeleteFunc(slices.Clone(runs), func(r []UserTrajectory) bool { return len(r) == 0 }); len(heads) > 0; {
		best := 0
		for i := 1; i < len(heads); i++ {
			switch id := heads[i][0].ID; {
			case id < heads[best][0].ID:
				best = i
			case id == heads[best][0].ID:
				return fmt.Errorf("user %d present in two runs — partitioning contract violated", id)
			}
		}
		emit(&heads[best][0])
		if heads[best] = heads[best][1:]; len(heads[best]) == 0 {
			heads = slices.Delete(heads, best, best+1)
		}
	}
	return nil
}

// FlattenUsers interleaves user-disjoint runs of per-user rows, each
// ascending by id, into the trajectory statistics of a pass that observed
// tweets tweets: the integer totals add, and the per-user series come in
// ascending id so the ordered float reductions downstream (the mean
// radius) see one order on every backend.
func FlattenUsers(tweets int64, runs ...[]UserTrajectory) (*mobility.Stats, error) {
	st := &mobility.Stats{Tweets: int(tweets)}
	if err := mergeUsers(runs, func(u *UserTrajectory) {
		st.Users++
		st.WaitMs += u.WaitMs
		st.TweetsPerUser = append(st.TweetsPerUser, float64(u.Tweets))
		st.CellsPerUser = append(st.CellsPerUser, float64(u.DistinctCells))
		st.GyrationKM = append(st.GyrationKM, u.GyrationKM)
	}); err != nil {
		return nil, fmt.Errorf("live: flatten: %w", err)
	}
	return st, nil
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
// the shard partial a cluster coordinator merges. Like Query it touches
// storage only to read store-only buckets back, and reuses every covered bucket's materialised partial; unlike
// Query it stops before assembly, leaving the trajectory statistics at
// per-user granularity so user-disjoint shard partials can be interleaved
// exactly. A custom radius answers ErrNotCovered, exactly like Query.
func (a *Aggregator) FoldPartial(req core.Request) (*ShardPartial, error) {
	return FoldRings(req, []*Aggregator{a})
}

// FoldRings is FoldPartial over the user-disjoint rings of one Shape — a
// shard's slot rings — planned once and folded into one ShardPartial:
// every ring folds with its own user cursor into one shared set of count
// vectors and flow matrices, and the rings' user runs are interleaved
// (mergeUsers) into one ascending run, allocated once.
func FoldRings(req core.Request, rings []*Aggregator) (*ShardPartial, error) {
	info, lo, hi, err := plan(req, rings...)
	if err != nil {
		return nil, err
	}
	acc := rings[0].newFold(info)
	sp := &ShardPartial{Scales: append([]census.Scale(nil), info.Scales...)}
	runs, n := make([][]UserTrajectory, len(rings)), 0
	for i, a := range rings {
		parts, err := a.collectCov(lo, hi, &sp.Coverage, false)
		if err != nil {
			return nil, err
		}
		runs[i] = acc.add(parts)
		n += len(runs[i])
	}
	sp.FoldedPass = *acc.f
	if n > 0 {
		sp.Users = make([]UserTrajectory, 0, n)
		if err := mergeUsers(runs, func(u *UserTrajectory) { sp.Users = append(sp.Users, *u) }); err != nil {
			return nil, fmt.Errorf("live: fold rings: %w", err)
		}
	}
	return sp, nil
}

// CoverageKeyRings is CoverageKeyRequest over the rings of one Shape,
// planned once: each ring's coverage is fed into one hash behind its tag
// (a shard passes its slot indexes), so the key moves exactly when a
// bucket any of the rings covers for req's window changes.
func CoverageKeyRings(req core.Request, tags []int, rings []*Aggregator) (string, error) {
	_, lo, hi, err := plan(req, rings...)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	for i, a := range rings {
		fmt.Fprintf(h, "%d;", tags[i])
		a.hashCoverage(h, lo, hi)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
