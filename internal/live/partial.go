package live

import (
	"math"
	"slices"
	"sort"
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

// cursorChunk is the number of rows the user cursor aims to sort at a
// time: it bounds the cursor's scratch and keeps each sort in cache.
const cursorChunk = 4096

// userCursor is the one user-major walk over chronologically ordered
// partials, behind both the fold and the rollup merge: next yields users
// in ascending id — the canonical stream order — and each user's rows in
// part, hence time, order. It sorts the rows one chunk of the id space
// at a time (fill), keyed (user, part, row), with sortByUser, which is
// stable; cursors and their key buffers, about one chunk long, are
// pooled.
type userCursor struct {
	parts     []*partial
	heads     []int     // per part, its first row not yet in a chunk
	keys, tmp []userKey // the current chunk's rows, sorted by user
	at        int       // the next unread key
	recs      []userRec // reused across next calls
}

var cursorPool = sync.Pool{New: func() any { return new(userCursor) }}

func newUserCursor(parts []*partial) *userCursor {
	c := cursorPool.Get().(*userCursor)
	c.parts = parts
	c.heads = append(c.heads[:0], make([]int, len(parts))...)
	c.keys, c.at = c.keys[:0], 0
	return c
}

// next returns the smallest unread user id and that user's rows in part
// order; the slice is valid until the following call. Once it reports
// !ok the cursor is back in the pool and must not be used again.
func (c *userCursor) next() (id int64, recs []userRec, ok bool) {
	if c.at == len(c.keys) && !c.fill() {
		clear(c.recs[:cap(c.recs)])
		c.parts, c.recs = nil, c.recs[:0]
		cursorPool.Put(c)
		return 0, nil, false
	}
	u := c.keys[c.at].user
	c.recs = c.recs[:0]
	for ; c.at < len(c.keys) && c.keys[c.at].user == u; c.at++ {
		c.recs = append(c.recs, userRec{p: c.parts[c.keys[c.at].part], row: int(c.keys[c.at].at)})
	}
	return int64(u ^ 1<<63), c.recs, true
}

// fill sorts the next chunk into keys, reporting false when no row is
// left.
func (c *userCursor) fill() bool {
	big, most, unread := 0, 0, 0
	for pi, p := range c.parts {
		n := len(p.users) - c.heads[pi]
		if unread += n; n > most {
			big, most = pi, n
		}
	}
	if unread == 0 {
		return false
	}
	// Every row goes when few are left. Otherwise the chunk ends at the
	// id that ends the next n rows of the part with the most unread
	// rows, n its share of cursorChunk and at least one row, so the
	// chunk is never empty, and takes every part's rows up to that id,
	// so each user falls wholly inside one chunk.
	last := int64(math.MaxInt64)
	if unread > cursorChunk {
		last = c.parts[big].users[c.heads[big]+max(1, cursorChunk*most/unread)-1].id
	}
	c.keys, c.at = c.keys[:0], 0
	for pi, p := range c.parts {
		lo := c.heads[pi]
		hi := lo + sort.Search(len(p.users)-lo, func(i int) bool { return p.users[lo+i].id > last })
		for r := lo; r < hi; r++ {
			c.keys = append(c.keys, userKey{user: uint64(p.users[r].id) ^ 1<<63, at: int32(r), part: int32(pi)})
		}
		c.heads[pi] = hi
	}
	c.tmp = slices.Grow(c.tmp[:0], len(c.keys))[:len(c.keys)]
	if sorted := sortByUser(c.keys, c.tmp); &sorted[0] != &c.keys[0] {
		c.keys, c.tmp = sorted, c.keys
	}
	return true
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
// [lo, hi), an unbounded hi taking every record, of the users whose
// placement slots (ring.SlotOf) are in the mask keep. b must be sorted;
// the caller holds the aggregator lock (the build reads bucket storage
// but writes only fresh memory, so builds of different buckets may run
// side by side under it).
func (a *Aggregator) buildRange(b *bucket, lo, hi int64, keep uint16) *partial {
	p := a.scratchPartial()
	slots := a.slots
	var cu *userPart
	prevBase, ps := -1, 0
	for i := range b.tweets {
		t := &b.tweets[i]
		if t.TS < lo || (t.TS >= hi && hi != math.MaxInt64) || keep != allSlots && keep&(1<<ring.SlotOf(t.UserID)) == 0 {
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
