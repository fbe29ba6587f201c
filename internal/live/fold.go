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
// the folded pass core.AssembleFolded consumes. The merge walks users in
// ascending id — the canonical stream order — and, per user, visits that
// user's records bucket by bucket in time order, so:
//
//   - integer aggregates (tweet counts, flow matrices, unique-user
//     bitsets, distinct cells) union or add exactly;
//   - boundary quantities between buckets (the waiting time, displacement
//     and flow transition between a user's last tweet in one bucket and
//     first tweet in the next containing bucket) are computed with the
//     same single operations the streaming extractor performs;
//   - order-sensitive float series (per-user waiting/displacement series,
//     the unit-vector sums behind the radius of gyration) are emitted in
//     exactly the serial order, interior runs stitched with the boundary
//     values, the gyration sums replayed addend by addend.
//
// The folded state is therefore bit-identical to the merged observer set
// of a streaming pass over the same substream (property-tested).
func (a *Aggregator) fold(info *core.PlanInfo, parts []*partial) *core.FoldedPass {
	f, _ := a.foldInto(info, parts, false)
	return f
}

// foldInto is the fold with a selectable statistics sink. With perUser
// unset it fills FoldedPass.Stats — the flat Table I series of a local
// query. With perUser set the identical per-user values (the same waits,
// displacements, gyration addends and distinct-cell counts, in the same
// order) are emitted as id-keyed UserTrajectory records instead and
// FoldedPass.Stats stays nil: a cluster coordinator interleaves the
// user-disjoint records of several shards back into ascending-id order
// before flattening, which a shard-local flat series could not support.
func (a *Aggregator) foldInto(info *core.PlanInfo, parts []*partial, perUser bool) (*core.FoldedPass, []UserTrajectory) {
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
	var st *mobility.Stats
	var users []UserTrajectory
	if info.Stats && !perUser {
		st = &mobility.Stats{Tweets: int(f.Tweets)}
	}

	var cellScratch []uint64
	var waitsBuf, dispsBuf []float64
	for cur := newUserCursor(parts); ; {
		u, recs, ok := cur.next()
		if !ok {
			break
		}
		if info.Stats {
			waitsBuf, dispsBuf = waitsBuf[:0], dispsBuf[:0]
			var sx, sy, sz float64
			n := 0
			cellScratch = cellScratch[:0]
			for k, rc := range recs {
				r := &rc.p.users[rc.row]
				if k > 0 {
					pr := &recs[k-1].p.users[recs[k-1].row]
					waitsBuf = append(waitsBuf, mobility.WaitingSecs(pr.lastTS, r.firstTS))
					dispsBuf = append(dispsBuf, mobility.DisplacementKM(pr.lastPt, r.firstPt))
				}
				rec0, rn := rc.p.recSpan(rc.row)
				w0 := rec0 - rc.row
				n += rn
				waitsBuf = append(waitsBuf, rc.p.waits[w0:w0+rn-1]...)
				dispsBuf = append(dispsBuf, rc.p.disps[w0:w0+rn-1]...)
				for j := 3 * rec0; j < 3*(rec0+rn); j += 3 {
					sx += rc.p.vecs[j]
					sy += rc.p.vecs[j+1]
					sz += rc.p.vecs[j+2]
				}
				cellScratch = append(cellScratch, rc.p.userCells(rc.row)...)
			}
			slices.Sort(cellScratch)
			distinct := 0
			for i := range cellScratch {
				if i == 0 || cellScratch[i] != cellScratch[i-1] {
					distinct++
				}
			}
			if perUser {
				users = append(users, UserTrajectory{
					ID:            u,
					Tweets:        int64(n),
					SumX:          sx,
					SumY:          sy,
					SumZ:          sz,
					DistinctCells: int64(distinct),
					Waits:         cloneOrNil(waitsBuf),
					Disps:         cloneOrNil(dispsBuf),
				})
			} else {
				st.Users++
				st.TweetsPerUser = append(st.TweetsPerUser, float64(n))
				st.WaitingSecs = append(st.WaitingSecs, waitsBuf...)
				st.DisplacementsKM = append(st.DisplacementsKM, dispsBuf...)
				st.CellsPerUser = append(st.CellsPerUser, float64(distinct))
				st.GyrationKM = append(st.GyrationKM, mobility.GyrationRadiusKM(sx, sy, sz, n))
			}
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
	if st != nil {
		f.Stats = st
	}
	return f, users
}

// cloneOrNil copies a scratch slice into fresh memory, mapping empty to
// nil so wire codecs round-trip the value exactly.
func cloneOrNil(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	return slices.Clone(vs)
}
