package live

import (
	"math/bits"
	"slices"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/mobility"
)

// foldAcc is one request's folded pass under construction: the span, the
// count vectors and the flow matrices the plan wants. Every ring of one
// Shape can fold into the same foldAcc, so a shard's slot rings fill one
// set of vectors and matrices, not one per slot.
type foldAcc struct {
	sh   *Shape
	info *core.PlanInfo
	f    *core.FoldedPass
	// slots are the request's scale slots in plan order; countTargets the
	// per-scale counts and the metro variant to fill; flowOf maps a scale
	// slot to the result matrix the request wants for it (nil when none).
	slots        []int
	countTargets []countTarget
	flowOf       []*mobility.FlowMatrix
}

type countTarget struct {
	slot   int
	counts []float64
}

// newFold allocates the empty folded pass info asks for.
func (sh *Shape) newFold(info *core.PlanInfo) *foldAcc {
	acc := &foldAcc{sh: sh, info: info, f: &core.FoldedPass{BBox: geo.EmptyBBox()}}
	f := acc.f
	acc.slots = make([]int, len(info.Scales))
	for i, sc := range info.Scales {
		acc.slots[i] = sh.slotOf[sc]
	}
	if info.Count {
		f.Counts = map[census.Scale][]float64{}
		for i, sc := range info.Scales {
			c := make([]float64, len(sh.regions[acc.slots[i]].Areas))
			f.Counts[sc] = c
			acc.countTargets = append(acc.countTargets, countTarget{slot: acc.slots[i], counts: c})
		}
	}
	if info.Metro500 {
		f.Metro500 = make([]float64, len(sh.regions[sh.metroSlot].Areas))
		acc.countTargets = append(acc.countTargets, countTarget{slot: sh.metroSlot, counts: f.Metro500})
	}
	if info.Extract {
		f.Flows = map[census.Scale]*mobility.FlowMatrix{}
		acc.flowOf = make([]*mobility.FlowMatrix, len(sh.scales))
		for i, sc := range info.Scales {
			acc.flowOf[acc.slots[i]] = mobility.NewFlowMatrix(sh.regions[acc.slots[i]].Areas)
			f.Flows[sc] = acc.flowOf[acc.slots[i]]
		}
	}
	return acc
}

// add folds one ring's chronological partials into the pass. It walks
// users in ascending id — the canonical stream order — and, per user,
// that user's rows partial by partial in time order:
//
//   - tweet counts, flow cells, unique-user bitsets, distinct cells, the
//     telescoped waiting time (last − first tweet time) and the
//     fixed-point unit-vector sums add or union exactly, in any order;
//   - the flow transition between a user's last tweet in one partial and
//     first tweet in the next is booked with the extractor's own rule.
//
// The ring's trajectory statistics leave as one UserTrajectory per user,
// ascending by id (nil unless the plan wants stats), and FoldedPass.Stats
// stays nil: a local query flattens its one run, a shard interleaves its
// rings' user-disjoint runs and a cluster coordinator its shards', all
// through mergeUsers. The folded state is bit-identical to the
// merged observer set of a streaming pass over the same substream
// (property-tested).
func (acc *foldAcc) add(parts []*partial) []UserTrajectory {
	sh, f, info := acc.sh, acc.f, acc.info
	slots, countTargets, flowOf := acc.slots, acc.countTargets, acc.flowOf
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
		if info.Extract {
			for _, c := range p.flows {
				if fm := flowOf[c.slot]; fm != nil {
					bookFlow(fm, c.from, c.to, c.n)
				}
			}
		}
	}

	var users []UserTrajectory
	var cells []uint64
	for cur := newUserCursor(parts); ; {
		u, recs, ok := cur.next()
		if !ok {
			break
		}
		if info.Stats {
			var sum mobility.VecSum
			n := 0
			cells = cells[:0]
			for _, rc := range recs {
				n += rc.p.recCount(rc.row)
				sum.Merge(rc.p.sums[rc.row])
				cells = append(cells, rc.p.userCells(rc.row)...)
			}
			slices.Sort(cells)
			first, last := recs[0], recs[len(recs)-1]
			users = append(users, UserTrajectory{
				ID:            u,
				Tweets:        int64(n),
				DistinctCells: int64(len(slices.Compact(cells))),
				WaitMs:        last.p.users[last.row].lastTS - first.p.users[first.row].firstTS,
				GyrationKM:    mobility.GyrationRadiusKM(sum, n),
			})
		}

		for _, ct := range countTargets {
			off := sh.wordOff[ct.slot]
			for w := 0; w < sh.wordsPerSlot[ct.slot]; w++ {
				var word uint64
				for _, rc := range recs {
					word |= rc.p.marks[rc.row*sh.totalWords+off+w]
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
						prev.p.lastArea[prev.row*sh.slots+slot],
						next.p.firstArea[next.row*sh.slots+slot], 1)
				}
			}
		}
	}
	return users
}
