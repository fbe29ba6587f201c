package live

import (
	"slices"
	"sync"

	"geomob/internal/geo"
	"geomob/internal/mobility"
)

// geo5 is the distinct-locations cell id the trajectory statistics count
// (Table I "locations") — the same ~5 km geohash cell the extractor uses.
func geo5(p geo.Point) uint64 { return geo.GeohashCellID(p, 5) }

// partial is the materialised aggregation state of one time bucket (or of
// the in-window residual slice of an edge bucket): everything the fold
// needs to reconstruct, together with the neighbouring partials, the
// exact observer state a serial streaming pass reaches over the union of
// their records.
//
// Per-user data is flattened into partial-level arrays indexed by the
// user's row; users are sorted by id, matching the canonical stream
// order. Interior quantities (waiting times, displacements, flows between
// consecutive in-bucket tweets) are precomputed with the very operations
// the streaming extractor performs — single-sourced in package mobility —
// so the fold only stitches bucket boundaries and replays addition
// sequences; it never re-derives a float differently.
type partial struct {
	tweets          int64
	bbox            geo.BBox
	firstTS, lastTS int64
	seen            bool

	users []userPart
	// firstArea/lastArea are the per-slot assignments of each user's
	// first and last in-range tweet (stride = slots).
	firstArea []int16
	lastArea  []int16
	// marks are per-user area bitsets over all slots (stride =
	// totalWords): which areas the user touched — the unique-user
	// counting primitive, unioned exactly across buckets.
	marks []uint64
	// flows[s] accumulates the interior transitions of scale slot s.
	flows []flowAcc
	// waits/disps hold each user's interior waiting times and
	// displacements (ranges on userPart; the two are 1:1). cells holds
	// each user's sorted distinct cell ids; vecs the per-tweet unit
	// vector addends in time order (3 floats per tweet).
	waits []float64
	disps []float64
	cells []uint64
	vecs  []float64
}

// userPart is one user's boundary summary within a partial.
type userPart struct {
	id              int64
	n               int32
	firstTS, lastTS int64
	firstPt, lastPt geo.Point
	w0, w1          int // waits/disps range
	c0, c1          int // cells range
	v0              int // vecs offset (3*n floats follow)
}

// flowAcc is the interior flow accumulator of one scale slot. It is
// sparse by rows: an hourly partial of mostly single-tweet users books
// almost no transitions, so stays and each flows row are allocated on
// their first increment and a nil row reads as all zeros.
type flowAcc struct {
	flows [][]float64
	stays []float64
}

func newFlowAcc(n int) flowAcc { return flowAcc{flows: make([][]float64, n)} }

// flowRow and stayRow return the row to increment, allocating it on
// first use.
func (f *flowAcc) flowRow(r int) []float64 {
	if f.flows[r] == nil {
		f.flows[r] = make([]float64, len(f.flows))
	}
	return f.flows[r]
}

func (f *flowAcc) stayRow() []float64 {
	if f.stays == nil {
		f.stays = make([]float64, len(f.flows))
	}
	return f.stays
}

// transition books one user's move between the areas of two consecutive
// tweets (negative = no area within ε): a stay when they match, a flow
// otherwise — the extractor's rule.
func (f *flowAcc) transition(from, to int16) {
	switch {
	case from < 0 || to < 0:
	case from == to:
		f.stayRow()[to]++
	default:
		f.flowRow(int(from))[to]++
	}
}

// add sums src into f. The cells are transition counts, which add
// exactly in any order, so skipping src's nil rows changes no bit.
func (f *flowAcc) add(src flowAcc) {
	for r, row := range src.flows {
		if row == nil {
			continue
		}
		dst := f.flowRow(r)
		for c, v := range row {
			dst[c] += v
		}
	}
	if src.stays != nil {
		dst := f.stayRow()
		for r, v := range src.stays {
			dst[r] += v
		}
	}
}

// userRec is one user's row in one partial.
type userRec struct {
	p   *partial
	row int
}

// userCursor is the k-way user-major merge over chronologically ordered
// partials that both the fold and the rollup merge walk: a binary
// min-heap over the parts' next unread users keyed (user id, part
// index), so next yields users in ascending id — the canonical stream
// order — and each user's rows in part, hence time, order at
// O(log parts) per row.
type userCursor struct {
	heap []cursorHead
	recs []userRec // reused across next calls
}

type cursorHead struct {
	id   int64
	part int
	rec  userRec
}

func (h cursorHead) less(o cursorHead) bool {
	return h.id < o.id || (h.id == o.id && h.part < o.part)
}

func newUserCursor(parts []*partial) *userCursor {
	c := &userCursor{heap: make([]cursorHead, 0, len(parts))}
	for pi, p := range parts {
		if len(p.users) > 0 {
			c.heap = append(c.heap, cursorHead{id: p.users[0].id, part: pi, rec: userRec{p: p}})
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	return c
}

// next returns the smallest unread user id and that user's rows in part
// order; the slice is valid until the following call.
func (c *userCursor) next() (id int64, recs []userRec, ok bool) {
	if len(c.heap) == 0 {
		return 0, nil, false
	}
	id = c.heap[0].id
	c.recs = c.recs[:0]
	for len(c.heap) > 0 && c.heap[0].id == id {
		h := &c.heap[0]
		c.recs = append(c.recs, h.rec)
		// Ids ascend strictly within a part, so the advanced head sorts
		// after every remaining head carrying id.
		if h.rec.row++; h.rec.row < len(h.rec.p.users) {
			h.id = h.rec.p.users[h.rec.row].id
		} else {
			last := len(c.heap) - 1
			c.heap[0] = c.heap[last]
			c.heap = c.heap[:last]
		}
		c.siftDown(0)
	}
	return id, c.recs, true
}

func (c *userCursor) siftDown(i int) {
	h := c.heap
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].less(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// partialScratch pools the partials that buildRange and mergePartials
// grow their columns in. A cold restart materialises thousands of
// partials at once; grown by append, every column would be reallocated a
// dozen times and left a quarter empty, and collecting that garbage —
// not the build — is what the restart would wait for (DESIGN.md §11).
var partialScratch = sync.Pool{New: func() any { return new(partial) }}

// scratchPartial returns an empty partial of a's shape whose columns
// reuse pooled capacity. It must be finished with publish.
func (a *Aggregator) scratchPartial() *partial {
	w := partialScratch.Get().(*partial)
	*w = partial{
		bbox:      geo.EmptyBBox(),
		flows:     make([]flowAcc, len(a.scales)),
		users:     w.users[:0],
		firstArea: w.firstArea[:0],
		lastArea:  w.lastArea[:0],
		marks:     w.marks[:0],
		waits:     w.waits[:0],
		disps:     w.disps[:0],
		cells:     w.cells[:0],
		vecs:      w.vecs[:0],
	}
	for s := range w.flows {
		w.flows[s] = newFlowAcc(len(a.regions[s].Areas))
	}
	return w
}

// publish returns the finished partial: each column copied out of the
// scratch with one allocation at its final length (nil when empty), the
// scratch back in the pool.
func (w *partial) publish() *partial {
	p := *w
	p.users = append([]userPart(nil), w.users...)
	p.firstArea = append([]int16(nil), w.firstArea...)
	p.lastArea = append([]int16(nil), w.lastArea...)
	p.marks = append([]uint64(nil), w.marks...)
	p.waits = append([]float64(nil), w.waits...)
	p.disps = append([]float64(nil), w.disps...)
	p.cells = append([]uint64(nil), w.cells...)
	p.vecs = append([]float64(nil), w.vecs...)
	w.flows = nil // handed to p
	partialScratch.Put(w)
	return &p
}

// closeCells turns the raw cell ids appended for the last user since
// u.c0 into the user's sorted distinct set.
func (p *partial) closeCells(u *userPart) {
	own := p.cells[u.c0:]
	slices.Sort(own)
	u.c1 = u.c0 + len(slices.Compact(own))
	p.cells = p.cells[:u.c1]
}

// buildRange materialises the partial for b's records with timestamps in
// [lo, hi). b must be sorted; the caller holds the aggregator lock (the
// build reads bucket storage but writes only fresh memory, so builds of
// different buckets may run side by side under it).
func (a *Aggregator) buildRange(b *bucket, lo, hi int64) *partial {
	p := a.scratchPartial()
	slots := a.slots
	var cu *userPart
	closeUser := func() {
		if cu != nil {
			cu.w1 = len(p.waits)
			p.closeCells(cu)
		}
	}
	prevBase := -1
	for i := range b.tweets {
		t := &b.tweets[i]
		if t.TS < lo || t.TS >= hi {
			continue
		}
		base := i * slots
		pt := t.Point()
		p.tweets++
		p.bbox = p.bbox.Extend(pt)
		if !p.seen || t.TS < p.firstTS {
			p.firstTS = t.TS
		}
		if !p.seen || t.TS > p.lastTS {
			p.lastTS = t.TS
		}
		p.seen = true
		if cu == nil || cu.id != t.UserID {
			closeUser()
			p.users = append(p.users, userPart{
				id: t.UserID, firstTS: t.TS, firstPt: pt,
				w0: len(p.waits), c0: len(p.cells), v0: len(p.vecs),
			})
			cu = &p.users[len(p.users)-1]
			p.firstArea = append(p.firstArea, b.assign[base:base+slots]...)
			p.lastArea = append(p.lastArea, b.assign[base:base+slots]...)
			p.marks = append(p.marks, a.zeroWords...)
		} else {
			p.waits = append(p.waits, mobility.WaitingSecs(cu.lastTS, t.TS))
			p.disps = append(p.disps, mobility.DisplacementKM(cu.lastPt, pt))
			for s := range a.scales {
				p.flows[s].transition(b.assign[prevBase+s], b.assign[base+s])
			}
			copy(p.lastArea[(len(p.users)-1)*slots:], b.assign[base:base+slots])
		}
		cu.n++
		cu.lastTS = t.TS
		cu.lastPt = pt
		mbase := (len(p.users) - 1) * a.totalWords
		for s := 0; s < slots; s++ {
			if ar := b.assign[base+s]; ar >= 0 {
				p.marks[mbase+a.wordOff[s]+int(ar)>>6] |= 1 << (uint(ar) & 63)
			}
		}
		p.cells = append(p.cells, b.cells[i])
		p.vecs = append(p.vecs, b.vecs[3*i], b.vecs[3*i+1], b.vecs[3*i+2])
		prevBase = base
	}
	closeUser()
	return p.publish()
}
