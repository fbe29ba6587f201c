package live

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/mobility"
	"geomob/internal/ring"
	"geomob/internal/tweet"
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
// storage only to read store-only buckets back, and reuses every covered
// bucket's materialised partial; unlike Query it stops before assembly,
// leaving the trajectory statistics at per-user granularity so
// user-disjoint shard partials can be interleaved exactly.
func (a *Aggregator) FoldPartial(req core.Request) (*ShardPartial, error) {
	return a.FoldSlots(req, nil)
}

// FoldSlots is FoldPartial over the users of the given placement slots
// (ring.SlotOf), nil meaning every slot: a cluster shard's one ring
// answers any slot subset the coordinator asks of it in one fold that
// skips the other slots' users (fold).
//
// A plan scale whose radius is not the one its slot materialises takes
// its counts and flows from radiusPass instead; everything else the
// partials fold does not depend on the radius.
func (a *Aggregator) FoldSlots(req core.Request, slots []int) (*ShardPartial, error) {
	keep := allSlots
	if slots != nil {
		keep = 0
		for _, k := range slots {
			if k < 0 || k >= ring.Slots {
				return nil, fmt.Errorf("live: placement slot %d out of range", k)
			}
			keep |= 1 << k
		}
	}
	info, lo, hi, err := plan(req)
	if err != nil {
		return nil, err
	}
	var off []census.Scale // plan scales at a radius the ring does not materialise
	for i, sc := range info.Scales {
		if info.ScaleRadius[i] != a.slotRadius[a.slotOf[sc]] {
			off = append(off, sc)
		}
	}
	var recs *[]tweet.Tweet
	if len(off) > 0 {
		recs = new([]tweet.Tweet)
	}
	sp := &ShardPartial{Scales: append([]census.Scale(nil), info.Scales...)}
	parts, err := a.collectCov(lo, hi, keep, &sp.Coverage, false, recs)
	if err != nil {
		return nil, err
	}
	f, users := a.fold(info, parts, keep)
	sp.FoldedPass, sp.Users = *f, users
	if recs != nil {
		if err := radiusPass(req, info, off, *recs, &sp.FoldedPass); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// radiusPass sets f's counts and flows at scales — plan scales whose
// request radius the ring does not materialise — from an exact core
// observer pass at the request's radius over recs, the in-window records
// of the folded users. Per-area unique-user counts and flow cells are
// integer sums over users, so the pass over one user partition adds
// exactly to the passes over the others, as the partials' counts do.
func radiusPass(req core.Request, info *core.PlanInfo, scales []census.Scale, recs []tweet.Tweet, f *core.FoldedPass) error {
	sort.Sort(tweet.ByUserTime(recs))
	sub := req
	sub.Scales = scales
	// The trajectory statistics and span come from the partials.
	sub.Analyses = slices.DeleteFunc(slices.Clone(info.Analyses), func(a core.Analysis) bool { return a == core.AnalysisStats })
	pass, err := core.NewStudy(core.SliceSource(recs)).Fold(context.TODO(), sub)
	if err != nil {
		return fmt.Errorf("live: pass at radius %g: %w", req.Radius, err)
	}
	for _, sc := range scales {
		if info.Count {
			f.Counts[sc] = pass.Counts[sc]
		}
		if info.Extract {
			f.Flows[sc] = pass.Flows[sc]
		}
	}
	return nil
}
