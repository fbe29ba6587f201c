package live

import (
	"strconv"
	"sync/atomic"

	"geomob/internal/mobility"
	"geomob/internal/obs"
	"geomob/internal/ring"
)

// Rollup tiers (DESIGN.md §11): cached partials merged over aligned
// groups of base buckets, so a multi-year window at an hourly bucket
// width folds dozens of day/month partials instead of tens of thousands
// of hour partials. A tier partial is produced by mergePartials, which
// adds and unions what the fold itself adds and unions and books the
// same boundary flow transitions, so folding [tier partial] is
// bit-identical to folding its member bucket partials (property-tested).

const dayMs = int64(24 * 60 * 60 * 1000)

// rollupFactors picks the tier grouping factors for a bucket width:
// one day and one (30-day) month, whenever the width divides them and
// each tier nests the previous one. Hourly buckets get [24, 720].
func rollupFactors(width int64) []int64 {
	var fs []int64
	for _, span := range []int64{dayMs, 30 * dayMs} {
		if span <= width || span%width != 0 {
			continue
		}
		f := span / width
		if n := len(fs); n > 0 && (f <= fs[n-1] || f%fs[n-1] != 0) {
			continue
		}
		fs = append(fs, f)
	}
	return fs
}

// rollupTier caches the merged partials of one grouping factor. revs
// stamps every group holding a live bucket with the ring revision of its
// latest member touch (touchLocked): ring revisions only grow, so a stamp
// moves exactly when a member bucket is created or changed. snapped holds
// the stamp of each group's merge in the last snapshot commit (absent:
// none). builds and hits are this ring's lifetime counters
// (RollupStats); mBuilds and mHits the process-wide series of the same
// events, labelled by factor.
type rollupTier struct {
	factor  int64
	groups  map[int64]*rollupGroup
	revs    map[int64]uint64
	snapped map[int64]uint64
	builds  atomic.Int64
	hits    atomic.Int64

	mBuilds, mHits *obs.Counter
}

func newRollupTier(factor int64) *rollupTier {
	tier := strconv.FormatInt(factor, 10)
	return &rollupTier{
		factor:  factor,
		groups:  map[int64]*rollupGroup{},
		revs:    map[int64]uint64{},
		snapped: map[int64]uint64{},
		mBuilds: obs.Def.Counter("geomob_ring_rollup_builds_total", "Rollup group merges materialised, by tier (group size in base buckets).", "tier", tier),
		mHits:   obs.Def.Counter("geomob_ring_rollup_hits_total", "Rollup groups served from their cached merge, by tier (group size in base buckets).", "tier", tier),
	}
}

// rollupGroup is one aligned group's cached merge, valid exactly while
// the group's stamp is the one it was merged under.
type rollupGroup struct {
	stamp uint64
	part  *partial
}

// current returns group g's cached merge while its stamp holds, else nil.
func (t *rollupTier) current(g int64) *rollupGroup {
	if grp := t.groups[g]; grp != nil && grp.stamp == t.revs[g] {
		return grp
	}
	return nil
}

// floorDiv is exact floor division for possibly negative bucket indexes.
func floorDiv(x, d int64) int64 {
	q := x / d
	if x%d != 0 && (x < 0) != (d < 0) {
		q--
	}
	return q
}

// groupPick is one rollup group a window takes: the cached merge when
// the group's stamp still holds, else (part nil) what materialiseLocked
// rebuilds it from.
type groupPick struct {
	tier    *rollupTier
	g       int64
	members []int64 // sorted non-empty live bucket indexes inside the group
	stamp   uint64
	part    *partial
}

// pickGroupLocked looks group g of tier t up under its current stamp.
// Caller holds a.mu.
func (a *Aggregator) pickGroupLocked(t *rollupTier, g int64, members []int64) groupPick {
	pk := groupPick{tier: t, g: g, members: members, stamp: t.revs[g]}
	if grp := t.current(g); grp != nil {
		t.hits.Add(1)
		t.mHits.Inc()
		pk.part = grp.part
	}
	return pk
}

// RollupTierStats is one tier's health snapshot.
type RollupTierStats struct {
	// Factor is the group size in base buckets; Groups the cached
	// merges currently held; Builds/Hits the lifetime cache counters.
	Factor int64 `json:"factor"`
	Groups int   `json:"groups"`
	Builds int64 `json:"builds"`
	Hits   int64 `json:"hits"`
}

// RollupStats reports the rollup tier caches, finest tier first.
func (a *Aggregator) RollupStats() []RollupTierStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]RollupTierStats, len(a.tiers))
	for i, t := range a.tiers {
		out[i] = RollupTierStats{Factor: t.factor, Groups: len(t.groups), Builds: t.builds.Load(), Hits: t.hits.Load()}
	}
	return out
}

// mergePartials merges chronologically ordered, non-overlapping partials
// into one partial covering their union, preserving the fold contract:
// folding [..., M, ...] is bit-identical to folding [..., p1..pk, ...].
// Per user the members' counts and vector sums add, their bitsets and
// cell sets union, and the flow transition between one member's last
// tweet and the next member's first is booked as the fold would book it.
func (a *Aggregator) mergePartials(parts []*partial) *partial {
	m := a.scratchPartial()
	for _, p := range parts {
		if p.seen {
			m.bbox = m.bbox.Union(p.bbox)
			if !m.seen || p.firstTS < m.firstTS {
				m.firstTS = p.firstTS
			}
			if !m.seen || p.lastTS > m.lastTS {
				m.lastTS = p.lastTS
			}
			m.seen = true
		}
		for _, c := range p.flows {
			m.addFlow(int(c.pslot), int(c.slot), c.from, c.to, c.n)
		}
	}
	slots := a.slots
	for cur := newUserCursor(parts); ; {
		u, recs, ok := cur.next()
		if !ok {
			break
		}
		row, ps := len(m.users), ring.SlotOf(u)
		m.users = append(m.users, userPart{
			id: u, firstTS: recs[0].p.users[recs[0].row].firstTS,
			rec0: uint32(m.tweets), c0: uint32(len(m.cells)),
		})
		m.marks = append(m.marks, a.zeroWords...)
		m.sums = append(m.sums, mobility.VecSum{})
		for k, rc := range recs {
			p, prow := rc.p, rc.row
			first, last := p.firstArea[prow*slots:(prow+1)*slots], p.lastArea[prow*slots:(prow+1)*slots]
			if k == 0 {
				m.firstArea = append(m.firstArea, first...)
				m.lastArea = append(m.lastArea, last...)
			} else {
				for s := range a.scales {
					m.transition(ps, s, m.lastArea[row*slots+s], first[s])
				}
				copy(m.lastArea[row*slots:], last)
			}
			m.tweets += int64(p.recCount(prow))
			m.users[row].lastTS = p.users[prow].lastTS
			m.sums[row].Merge(p.sums[prow])
			m.cells = append(m.cells, p.userCells(prow)...)
			mb, pb := row*a.totalWords, prow*a.totalWords
			for w := 0; w < a.totalWords; w++ {
				m.marks[mb+w] |= p.marks[pb+w]
			}
		}
		m.closeCells(&m.users[row])
	}
	return m.publish()
}
