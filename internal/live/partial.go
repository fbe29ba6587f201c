package live

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/ring"
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
// order. Everything a partial holds merges exactly in any grouping —
// integer counts, set unions, min/max, the fixed-point vector sums of
// package mobility — except the flow transition between a user's last
// tweet in one partial and first tweet in the next, which the fold and
// the rollup merge stitch from the rows' boundary assignments.
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
	// flows are the nonzero interior transition counts, sorted by
	// (placement slot, scale slot, from, to); nil when no user has two
	// records in the partial — the common hour partial.
	flows []flowCell
	// cells are each user's sorted distinct cell ids, in user-row order;
	// sums each user row's summed unit vectors.
	cells []uint64
	sums  []mobility.VecSum
}

// userPart is one user's boundary summary within a partial. The rows
// partition the partial's records in order, so a row's record count and
// its range in cells follow from two running offsets — 32-bit, as a
// partial's columns pass 100 GB before a record offset wraps.
type userPart struct {
	id              int64
	rec0            uint32 // records in the rows before this one
	c0              uint32 // cells in the rows before this one
	firstTS, lastTS int64
}

// recCount returns the number of records of one user row.
func (p *partial) recCount(row int) int {
	end := int(p.tweets)
	if row+1 < len(p.users) {
		end = int(p.users[row+1].rec0)
	}
	return end - int(p.users[row].rec0)
}

// userCells returns one user row's sorted distinct cell ids.
func (p *partial) userCells(row int) []uint64 {
	end := len(p.cells)
	if row+1 < len(p.users) {
		end = int(p.users[row+1].c0)
	}
	return p.cells[p.users[row].c0:end]
}

// bytes is the heap p holds, counted from its column lengths. A nil
// partial holds nothing.
func (p *partial) bytes() int64 {
	if p == nil {
		return 0
	}
	return int64(int(unsafe.Sizeof(*p)) +
		len(p.users)*int(unsafe.Sizeof(userPart{})) +
		len(p.flows)*int(unsafe.Sizeof(flowCell{})) +
		len(p.sums)*int(unsafe.Sizeof(mobility.VecSum{})) +
		2*(len(p.firstArea)+len(p.lastArea)) +
		8*(len(p.marks)+len(p.cells)))
}

// flowCell is one nonzero interior transition count of a partial: n
// moves, by users of placement slot pslot (ring.SlotOf), from area from
// to area to at scale slot slot, a stay when the two match. Counts are
// exact integers, so cells add in any order; the placement slot lets a
// fold over some placement slots book only their users' moves.
type flowCell struct {
	pslot          uint8
	slot, from, to int16
	n              float64
}

// bookFlow adds n transitions from one area to another (negative = no
// area within ε, which books nothing) to a result matrix: a stay when
// they match, a flow otherwise — the extractor's rule.
func bookFlow(fm *mobility.FlowMatrix, from, to int16, n float64) {
	switch {
	case from < 0 || to < 0:
	case from == to:
		fm.Stays[to] += n
	default:
		fm.Flows[from][to] += n
	}
}

// userRec is one user's row in one partial.
type userRec struct {
	p   *partial
	row int
}

// userCursor is the k-way user-major merge over chronologically ordered
// partials that the fold walks: a binary
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

// partialBuild is the scratch a partial is built in: columns that grow
// by append, plus the dense interior transition accumulator — one cell
// per (placement slot, scale slot, from, to), stays on the diagonal —
// and the list of cells it has touched. Between builds every cell of acc is zero, so a
// scratch last used by a shape with other area counts is as good as new
// once acc is long enough.
type partialBuild struct {
	partial
	sh      *Shape
	acc     []float64
	touched []int
}

// partialScratch pools the scratch that buildRange and mergePartials
// grow their columns in. A cold restart materialises thousands of
// partials at once; grown by append, every column would be reallocated a
// dozen times and left a quarter empty, and collecting that garbage —
// not the build — is what the restart would wait for (DESIGN.md §11).
var partialScratch = sync.Pool{New: func() any { return new(partialBuild) }}

// scratchPartial returns an empty partial of a's shape whose columns
// reuse pooled capacity. It must be finished with publish.
func (a *Aggregator) scratchPartial() *partialBuild {
	w := partialScratch.Get().(*partialBuild)
	w.partial = partial{
		bbox:      geo.EmptyBBox(),
		users:     w.users[:0],
		firstArea: w.firstArea[:0],
		lastArea:  w.lastArea[:0],
		marks:     w.marks[:0],
		cells:     w.cells[:0],
		sums:      w.sums[:0],
	}
	w.sh = a.Shape
	n := ring.Slots * a.accLen
	if cap(w.acc) < n {
		w.acc = make([]float64, n)
	}
	w.acc = w.acc[:n]
	return w
}

// transition books one move of a user of placement slot ps between the
// areas of two consecutive tweets at scale slot s (negative = no area
// within ε).
func (w *partialBuild) transition(ps, s int, from, to int16) {
	if from >= 0 && to >= 0 {
		w.addFlow(ps, s, from, to, 1)
	}
}

func (w *partialBuild) addFlow(ps, s int, from, to int16, n float64) {
	i := ps*w.sh.accLen + w.sh.accOff[s] + int(from)*len(w.sh.regions[s].Areas) + int(to)
	if w.acc[i] == 0 {
		w.touched = append(w.touched, i)
	}
	w.acc[i] += n
}

// publish returns the finished partial: each column copied out of the
// scratch with one allocation at its final length (nil when empty), the
// touched accumulator cells emitted in (placement slot, scale slot, from,
// to) order and zeroed again, the scratch back in the pool.
func (w *partialBuild) publish() *partial {
	p := w.partial
	p.users = append([]userPart(nil), w.users...)
	p.firstArea = append([]int16(nil), w.firstArea...)
	p.lastArea = append([]int16(nil), w.lastArea...)
	p.marks = append([]uint64(nil), w.marks...)
	p.cells = append([]uint64(nil), w.cells...)
	p.sums = append([]mobility.VecSum(nil), w.sums...)
	if len(w.touched) > 0 {
		slices.Sort(w.touched)
		p.flows = make([]flowCell, len(w.touched))
		for k, i := range w.touched {
			ps, at, s := i/w.sh.accLen, i%w.sh.accLen, 0
			for s+1 < len(w.sh.accOff) && at >= w.sh.accOff[s+1] {
				s++
			}
			n := len(w.sh.regions[s].Areas)
			at -= w.sh.accOff[s]
			p.flows[k] = flowCell{pslot: uint8(ps), slot: int16(s), from: int16(at / n), to: int16(at % n), n: w.acc[i]}
			w.acc[i] = 0
		}
		w.touched = w.touched[:0]
	}
	partialScratch.Put(w)
	return &p
}

// closeCells turns the raw cell ids appended for the last user since
// u.c0 into the user's sorted distinct set.
func (p *partial) closeCells(u *userPart) {
	own := p.cells[u.c0:]
	slices.Sort(own)
	p.cells = p.cells[:int(u.c0)+len(slices.Compact(own))]
}

// buildRange materialises the partial for b's records with timestamps in
// [lo, hi), an unbounded hi taking every record. b must be sorted; the
// caller holds the aggregator lock (the build reads bucket storage but
// writes only fresh memory, so builds of different buckets may run side
// by side under it).
func (a *Aggregator) buildRange(b *bucket, lo, hi int64) *partial {
	p := a.scratchPartial()
	slots := a.slots
	var cu *userPart
	prevBase, ps := -1, 0
	for i := range b.tweets {
		t := &b.tweets[i]
		if t.TS < lo || (t.TS >= hi && hi != math.MaxInt64) {
			continue
		}
		base := i * slots
		if !p.seen || t.TS < p.firstTS {
			p.firstTS = t.TS
		}
		if !p.seen || t.TS > p.lastTS {
			p.lastTS = t.TS
		}
		p.seen = true
		p.bbox = p.bbox.Extend(t.Point())
		if cu == nil || cu.id != t.UserID {
			if cu != nil {
				p.closeCells(cu)
			}
			p.users = append(p.users, userPart{
				id: t.UserID, firstTS: t.TS,
				rec0: uint32(p.tweets), c0: uint32(len(p.cells)),
			})
			cu = &p.users[len(p.users)-1]
			ps = ring.SlotOf(t.UserID)
			p.firstArea = append(p.firstArea, b.assign[base:base+slots]...)
			p.lastArea = append(p.lastArea, b.assign[base:base+slots]...)
			p.marks = append(p.marks, a.zeroWords...)
			p.sums = append(p.sums, mobility.VecSum{})
		} else {
			for s := range a.scales {
				p.transition(ps, s, b.assign[prevBase+s], b.assign[base+s])
			}
			copy(p.lastArea[(len(p.users)-1)*slots:], b.assign[base:base+slots])
		}
		p.tweets++
		cu.lastTS = t.TS
		mbase := (len(p.users) - 1) * a.totalWords
		for s := 0; s < slots; s++ {
			if ar := b.assign[base+s]; ar >= 0 {
				p.marks[mbase+a.wordOff[s]+int(ar)>>6] |= 1 << (uint(ar) & 63)
			}
		}
		p.cells = append(p.cells, b.cells[i])
		p.sums[len(p.users)-1].Add(b.vecs[3*i], b.vecs[3*i+1], b.vecs[3*i+2])
		prevBase = base
	}
	if cu != nil {
		p.closeCells(cu)
	}
	return p.publish()
}
