package live

import (
	"math/bits"
	"slices"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/ring"
)

// allSlots is the placement-slot mask of a fold over every user.
const allSlots = uint16(1<<ring.Slots - 1)

type countTarget struct {
	slot   int
	counts []float64
}

// fold folds a ring's chronological partials into the pass info asks for,
// over the users whose placement slot (ring.SlotOf) is in the mask keep.
// It walks users in ascending id — the canonical stream order — and, per
// user, that user's rows partial by partial in time order:
//
//   - tweet counts, span times, unique-user bitsets, distinct cells, the
//     telescoped waiting time (last − first tweet time) and the
//     fixed-point unit-vector sums add or union exactly, in any order;
//   - interior flow cells add, and the flow transition between a user's
//     last tweet in one partial and first tweet in the next is booked
//     with the extractor's own rule.
//
// A user of a slot outside keep is skipped whole, and a flow cell of one
// books nothing; with every slot kept no slot is computed. The span's box
// is the union of the partials' boxes, which holds the records of every
// user in them: exact over all slots, and over some a box that the boxes
// of the other slots' folds union to the exact one (DESIGN.md §8).
//
// The trajectory statistics leave as one UserTrajectory per user,
// ascending by id (nil unless the plan wants stats), and the pass's Stats
// stays nil: a local query flattens its one run and a cluster coordinator
// interleaves its shards', both through FlattenUsers. The folded state is
// bit-identical to the merged observer set of a streaming pass over the
// same users' substream (property-tested).
func (sh *Shape) fold(info *core.PlanInfo, parts []*partial, keep uint16) (*core.FoldedPass, []UserTrajectory) {
	f := &core.FoldedPass{BBox: geo.EmptyBBox()}
	// slots are the request's scale slots in plan order; countTargets the
	// per-scale counts and the metro variant to fill; flowOf maps a scale
	// slot to the result matrix the request wants for it (nil when none).
	slots := make([]int, len(info.Scales))
	for i, sc := range info.Scales {
		slots[i] = sh.slotOf[sc]
	}
	var countTargets []countTarget
	if info.Count {
		f.Counts = map[census.Scale][]float64{}
		for i, sc := range info.Scales {
			c := make([]float64, len(sh.regions[slots[i]].Areas))
			f.Counts[sc] = c
			countTargets = append(countTargets, countTarget{slot: slots[i], counts: c})
		}
	}
	if info.Metro500 {
		f.Metro500 = make([]float64, len(sh.regions[sh.metroSlot].Areas))
		countTargets = append(countTargets, countTarget{slot: sh.metroSlot, counts: f.Metro500})
	}
	var flowOf []*mobility.FlowMatrix
	if info.Extract {
		f.Flows = map[census.Scale]*mobility.FlowMatrix{}
		flowOf = make([]*mobility.FlowMatrix, len(sh.scales))
		for i, sc := range info.Scales {
			flowOf[slots[i]] = mobility.NewFlowMatrix(sh.regions[slots[i]].Areas)
			f.Flows[sc] = flowOf[slots[i]]
		}
	}

	for _, p := range parts {
		if p.seen {
			f.BBox = f.BBox.Union(p.bbox)
		}
		if info.Extract {
			for _, c := range p.flows {
				if fm := flowOf[c.slot]; fm != nil && keep&(1<<c.pslot) != 0 {
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
		if keep != allSlots && keep&(1<<ring.SlotOf(u)) == 0 {
			continue
		}
		first, last := recs[0], recs[len(recs)-1]
		firstTS, lastTS := first.p.users[first.row].firstTS, last.p.users[last.row].lastTS
		if !f.Seen || firstTS < f.FirstTS {
			f.FirstTS = firstTS
		}
		if !f.Seen || lastTS > f.LastTS {
			f.LastTS = lastTS
		}
		f.Seen = true
		n := 0
		for _, rc := range recs {
			n += rc.p.recCount(rc.row)
		}
		f.Tweets += int64(n)
		if info.Stats {
			var sum mobility.VecSum
			cells = cells[:0]
			for _, rc := range recs {
				sum.Merge(rc.p.sums[rc.row])
				cells = append(cells, rc.p.userCells(rc.row)...)
			}
			slices.Sort(cells)
			users = append(users, UserTrajectory{
				ID:            u,
				Tweets:        int64(n),
				DistinctCells: int64(len(slices.Compact(cells))),
				WaitMs:        lastTS - firstTS,
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
	if !f.Seen {
		f.BBox = geo.EmptyBBox()
	}
	return f, users
}
