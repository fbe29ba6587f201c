package cluster

import (
	"fmt"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/live"
	"geomob/internal/mobility"
)

// MergePartials folds the user-disjoint shard partials of one request
// into the single core.FoldedPass that core.AssembleFolded consumes —
// the gather half of scatter-gather. Exactness (DESIGN.md §8):
//
//   - tweet counts, span bounds, per-area unique-user counts and flow
//     matrices are whole-number sums / min-max reductions, exact in any
//     order; a user contributes to each of them on exactly one shard
//     because the partitioner keeps trajectories whole;
//   - the Table I series are rebuilt by live.FlattenUsers, the function a
//     local fold flattens its own rows with: every per-user value was
//     finished on the owning shard, and interleaving the shards' rows in
//     ascending user id — the canonical serial order — gives the ordered
//     float reductions downstream the order a single-node pass has.
//
// A user id appearing on two shards violates the partitioning contract
// and is reported as an error rather than silently double-counted.
func MergePartials(req core.Request, parts []*live.ShardPartial) (*core.FoldedPass, error) {
	info, err := core.PlanRequest(req)
	if err != nil {
		return nil, err
	}
	gaz := census.Australia()
	f := &core.FoldedPass{BBox: geo.EmptyBBox()}
	for si, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("cluster: merge: shard %d returned no partial", si)
		}
		if len(p.Scales) != len(info.Scales) {
			return nil, fmt.Errorf("cluster: merge: shard %d folded %d scales, plan has %d",
				si, len(p.Scales), len(info.Scales))
		}
		for i, sc := range info.Scales {
			if p.Scales[i] != sc {
				return nil, fmt.Errorf("cluster: merge: shard %d scale %d is %s, plan wants %s",
					si, i, p.Scales[i], sc)
			}
		}
		f.Tweets += p.Tweets
		if p.Seen {
			f.BBox = f.BBox.Union(p.BBox)
			if !f.Seen || p.FirstTS < f.FirstTS {
				f.FirstTS = p.FirstTS
			}
			if !f.Seen || p.LastTS > f.LastTS {
				f.LastTS = p.LastTS
			}
			f.Seen = true
		}
	}

	scaleAreas := func(sc census.Scale) ([]census.Area, error) {
		rs, err := gaz.Regions(sc)
		if err != nil {
			return nil, fmt.Errorf("cluster: merge: regions for %s: %w", sc, err)
		}
		return rs.Areas, nil
	}
	addCounts := func(sum, c []float64) error {
		if len(c) != len(sum) {
			return fmt.Errorf("got %d areas, want %d", len(c), len(sum))
		}
		for i, v := range c {
			sum[i] += v
		}
		return nil
	}
	if info.Count {
		f.Counts = map[census.Scale][]float64{}
		for _, sc := range info.Scales {
			areas, err := scaleAreas(sc)
			if err != nil {
				return nil, err
			}
			f.Counts[sc] = make([]float64, len(areas))
			for si, p := range parts {
				if err := addCounts(f.Counts[sc], p.Counts[sc]); err != nil {
					return nil, fmt.Errorf("cluster: merge: shard %d counts for %s: %w", si, sc, err)
				}
			}
		}
	}
	if info.Metro500 {
		areas, err := scaleAreas(census.ScaleMetropolitan)
		if err != nil {
			return nil, err
		}
		f.Metro500 = make([]float64, len(areas))
		for si, p := range parts {
			if err := addCounts(f.Metro500, p.Metro500); err != nil {
				return nil, fmt.Errorf("cluster: merge: shard %d metro 0.5 km counts: %w", si, err)
			}
		}
	}
	if info.Extract {
		f.Flows = map[census.Scale]*mobility.FlowMatrix{}
		for _, sc := range info.Scales {
			areas, err := scaleAreas(sc)
			if err != nil {
				return nil, err
			}
			fm := mobility.NewFlowMatrix(areas)
			for si, p := range parts {
				src := p.Flows[sc]
				if src == nil || len(src.Flows) != len(areas) {
					return nil, fmt.Errorf("cluster: merge: shard %d flow matrix for %s missing or mis-sized", si, sc)
				}
				if err := fm.Merge(src); err != nil {
					return nil, fmt.Errorf("cluster: merge: shard %d flows for %s: %w", si, sc, err)
				}
			}
			f.Flows[sc] = fm
		}
	}
	if info.Stats {
		runs := make([][]live.UserTrajectory, len(parts))
		for si, p := range parts {
			runs[si] = p.Users
		}
		if f.Stats, err = live.FlattenUsers(f.Tweets, runs...); err != nil {
			return nil, fmt.Errorf("cluster: merge: %w", err)
		}
	}
	return f, nil
}
