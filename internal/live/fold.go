package live

import (
	"math/bits"
	"slices"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/mobility"
)

// fold merges the chronological partials covering one request window into
// the folded pass core.AssembleFolded consumes.
func (a *Aggregator) fold(info *core.PlanInfo, parts []*partial) *core.FoldedPass {
	f, users := a.foldInto(info, parts)
	if info.Stats {
		// One ascending-id run cannot collide with itself.
		f.Stats, _ = FlattenUsers(f.Tweets, users)
	}
	return f
}

// foldInto walks users in ascending id — the canonical stream order —
// and, per user, that user's rows partial by partial in time order:
//
//   - tweet counts, flow cells, unique-user bitsets, distinct cells, the
//     telescoped waiting time (last − first tweet time) and the
//     fixed-point unit-vector sums add or union exactly, in any order;
//   - the flow transition between a user's last tweet in one partial and
//     first tweet in the next is booked with the extractor's own rule.
//
// The trajectory statistics leave as one UserTrajectory per user (nil
// unless the plan wants stats) and FoldedPass.Stats stays nil: a local
// query flattens its one run, a cluster coordinator first interleaves the
// user-disjoint runs of several shards, both through FlattenUsers. The
// folded state is bit-identical to the merged observer set of a streaming
// pass over the same substream (property-tested).
func (a *Aggregator) foldInto(info *core.PlanInfo, parts []*partial) (*core.FoldedPass, []UserTrajectory) {
	f := &core.FoldedPass{BBox: geo.EmptyBBox()}
	for _, p := range parts {
		f.Tweets += p.tweets
		if p.seen {
			f.BBox = f.BBox.Union(p.bbox)
			if !f.Seen || p.firstTS < f.FirstTS {
				f.FirstTS = p.firstTS
			}
			if !f.Seen || p.lastTS > f.LastTS {
				f.LastTS = p.lastTS
			}
			f.Seen = true
		}
	}

	// The request's scale slots in plan order, plus which count targets
	// (per-scale counts, the metro variant) and flow matrices to fill.
	slots := make([]int, len(info.Scales))
	for i, sc := range info.Scales {
		slots[i] = a.slotOf[sc]
	}
	type countTarget struct {
		slot   int
		counts []float64
	}
	var countTargets []countTarget
	if info.Count {
		f.Counts = map[census.Scale][]float64{}
		for i, sc := range info.Scales {
			c := make([]float64, len(a.regions[slots[i]].Areas))
			f.Counts[sc] = c
			countTargets = append(countTargets, countTarget{slot: slots[i], counts: c})
		}
	}
	if info.Metro500 {
		f.Metro500 = make([]float64, len(a.regions[a.metroSlot].Areas))
		countTargets = append(countTargets, countTarget{slot: a.metroSlot, counts: f.Metro500})
	}
	// flowOf maps a scale slot to the result matrix the request wants for
	// it (nil when none): interior cells and boundary transitions land in
	// the result directly.
	var flowOf []*mobility.FlowMatrix
	if info.Extract {
		f.Flows = map[census.Scale]*mobility.FlowMatrix{}
		flowOf = make([]*mobility.FlowMatrix, len(a.scales))
		for i, sc := range info.Scales {
			flowOf[slots[i]] = mobility.NewFlowMatrix(a.regions[slots[i]].Areas)
			f.Flows[sc] = flowOf[slots[i]]
		}
		for _, p := range parts {
			for _, c := range p.flows {
				if fm := flowOf[c.slot]; fm != nil {
					bookFlow(fm, c.from, c.to, c.n)
				}
			}
		}
	}
	var users []UserTrajectory
	var cellScratch []uint64
	for cur := newUserCursor(parts); ; {
		u, recs, ok := cur.next()
		if !ok {
			break
		}
		if info.Stats {
			var sum mobility.VecSum
			n := 0
			cellScratch = cellScratch[:0]
			for _, rc := range recs {
				n += rc.p.recCount(rc.row)
				sum.Merge(rc.p.sums[rc.row])
				cellScratch = append(cellScratch, rc.p.userCells(rc.row)...)
			}
			slices.Sort(cellScratch)
			first, last := recs[0], recs[len(recs)-1]
			users = append(users, UserTrajectory{
				ID:            u,
				Tweets:        int64(n),
				DistinctCells: int64(len(slices.Compact(cellScratch))),
				WaitMs:        last.p.users[last.row].lastTS - first.p.users[first.row].firstTS,
				GyrationKM:    mobility.GyrationRadiusKM(sum, n),
			})
		}

		for _, ct := range countTargets {
			off := a.wordOff[ct.slot]
			for w := 0; w < a.wordsPerSlot[ct.slot]; w++ {
				var word uint64
				for _, rc := range recs {
					word |= rc.p.marks[rc.row*a.totalWords+off+w]
				}
				for word != 0 {
					ct.counts[w*64+bits.TrailingZeros64(word)]++
					word &= word - 1
				}
			}
		}

		if info.Extract {
			for k := 1; k < len(recs); k++ {
				prev, next := recs[k-1], recs[k]
				for _, slot := range slots {
					bookFlow(flowOf[slot],
						prev.p.lastArea[prev.row*a.slots+slot],
						next.p.firstArea[next.row*a.slots+slot], 1)
				}
			}
		}
	}
	return f, users
}
