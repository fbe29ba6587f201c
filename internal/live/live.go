// Package live is the streaming ingest and incremental aggregation
// subsystem: it absorbs a continuous feed of tweet batches and answers
// windowed Study requests by folding materialised per-bucket partial
// states instead of rescanning storage segments.
//
// The design (DESIGN.md §7) rests on three pieces:
//
//   - an ingest path that routes every tweet through the grid-resolved
//     assignment hot path (mobility.MultiScaleMapper) exactly once, at
//     arrival, caching the per-slot area assignments, the geohash cell id
//     and the unit sphere vector alongside the record in a time-bucket
//     ring;
//
//   - one materialised partial per bucket — per-user boundary summaries
//     (first/last timestamp and assignment), per-user reductions (record
//     count, exact unit-vector sum, area bitset, distinct cells) and the
//     nonzero interior transition counts — rebuilt only when a batch
//     lands in that bucket;
//
//   - a fold that merges the partials covering a [From, To) window in
//     user-major order: everything per user adds or unions exactly, and
//     the one cross-bucket quantity that does not — the flow transition
//     at each boundary — is stitched from the rows' boundary assignments,
//     so the folded observer state — and hence the assembled Result — is
//     bit-identical to a cold full pass over the same substream at any
//     worker count.
//
// Requests whose window edges are not bucket-aligned fold the covered
// buckets plus freshly built residual partials over the two partial edge
// buckets. No path touches the backing store but one: a bucket restored
// from a snapshot holds its partial and not its records, and the first
// reader that needs them reads them back once from the restore's covered
// segments (DESIGN.md §11). Otherwise repeated windowed queries leave
// tweetdb.Store.ScanCount unchanged.
package live

import (
	"cmp"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
	"geomob/internal/wire"
)

// Bucket-ring metrics (DESIGN.md §12). Ring counters are per-batch
// (one add per IngestBatch) so the hot path cost stays one atomic per
// batch, not per record.
var (
	mRingRecords    = obs.Def.Counter("geomob_ring_records_total", "Records routed into the bucket ring.")
	mRingBuilds     = obs.Def.Counter("geomob_ring_builds_total", "Full-bucket partial materialisations.")
	mRingReloads    = obs.Def.Counter("geomob_ring_reloads_total", "Restored store-only buckets whose records were read back from the store.")
	mRingReloadSecs = obs.Def.Histogram("geomob_ring_reload_seconds", "Latency of one reload scan of store-only buckets.", nil)
)

// Options configure an Aggregator. Scales and radii are not options:
// every ring materialises the paper's shape.
type Options struct {
	// BucketWidth is the fixed time-bucket width. Zero means one hour.
	BucketWidth time.Duration
}

// Aggregator is the bucket ring: per fixed time bucket, the pre-resolved
// records and a lazily materialised partial covering the full default
// request shape (stats + population + mobility at every paper scale,
// plus the metro 0.5 km variant), which subsumes every analysis subset.
// It is safe for concurrent use.
// Shape is the immutable assignment machinery an Aggregator runs on:
// the resolved region sets, the multi-scale grid resolvers, and the
// flat bitset layout. Building one is the expensive part of aggregator
// construction (every grid resolver is materialised), so callers that
// need several aggregators over the same configuration build one Shape
// and stamp aggregators out of it with Shape.NewAggregator.
type Shape struct {
	width  int64 // bucket width in ms
	scales []census.Scale
	// regions[s] is the region set of scale slot s; slot layout is the
	// paper scales in order at their paper radii, then the metro 0.5 km
	// variant at metroSlot.
	regions    []census.RegionSet
	msm        *mobility.MultiScaleMapper
	slotRadius []float64
	slotOf     map[census.Scale]int
	metroSlot  int
	slots      int
	// Per-user area bitsets are flat: wordOff[s] is slot s's word offset
	// within a user's totalWords-word row.
	wordsPerSlot []int
	wordOff      []int
	totalWords   int
	zeroWords    []uint64
	// A build's dense interior-transition accumulator (partialBuild.acc)
	// gives each placement slot accLen cells and, within them, scale slot
	// s the len(areas)² cells from accOff[s].
	accOff []int
	accLen int
	// hash fingerprints the assignment configuration (width, scales,
	// radii, area counts). Snapshot files record it so a restore never
	// injects pre-resolved columns into a ring with different machinery.
	hash uint64
	// rollups are the tier grouping factors, in base buckets, coarsening
	// left to right (day, then ~month, when the width divides them).
	rollups []int64
}

type Aggregator struct {
	*Shape

	builds   atomic.Int64 // full-bucket partial materialisations
	ingested atomic.Int64 // records accepted into the ring
	// Resident heap by kind (ResidentBytes), moved with every append,
	// publish and invalidation so a scrape never walks the ring.
	resRecords, resPartials, resRollups atomic.Int64
	storeOnly                           atomic.Int64 // buckets holding stored rows
	// held has bit k set once a user of placement slot k (ring.SlotOf)
	// has a record in the ring.
	held atomic.Uint32

	mu      sync.Mutex
	buckets map[int64]*bucket
	// idxs are the live bucket indexes in ascending order, so every
	// window probe is a binary search instead of a map walk and a sort.
	idxs []int64
	rev  uint64
	// tiers are the rollup caches, one per grouping factor (finest
	// first): lazily merged multi-bucket partials that let a wide window
	// fold dozens of partials instead of thousands (DESIGN.md §11).
	tiers []*rollupTier
	// origin is where restored buckets read their records back from; nil
	// unless Recover restored partials.
	origin *restoreOrigin
}

// restoreOrigin is the store a restored ring came from and the restore
// manifest's covered segments, which hold exactly the records of the
// restored partials.
type restoreOrigin struct {
	store *tweetdb.Store
	files []string
}

// bucket holds one time bucket's raw pre-resolved records plus the
// materialised partial. assign/vecs/cells are parallel to tweets with
// strides slots/3/1 — filled once at ingest, so a partial rebuild never
// re-runs the spatial resolvers or the trigonometry.
type bucket struct {
	rev    uint64
	tweets []tweet.Tweet
	assign []int16
	vecs   []float64
	cells  []uint64
	sorted bool
	part   *partial
	// stored is non-nil while the bucket is store-only: restored from a
	// snapshot, its partial came from the file and the records it was
	// built from are still only in the store. tweets then holds just the
	// rows routed since the restore.
	stored *storedRows
	// snapRev is the revision last committed to a durable snapshot; the
	// bucket is dirty — and will be rewritten by the next snapshot
	// commit — exactly while rev != snapRev.
	snapRev uint64
}

// storedRows is what a restored bucket knows of the records it has not
// read back: the restored partial — their count and each user's first
// and last time — and the times between (snapPart.mids), which together
// count any window of them exactly without the store.
type storedRows struct {
	part *partial
	mids []int64
}

// count returns how many stored records have times in [lo, hi).
func (s *storedRows) count(lo, hi int64) int64 {
	in := func(ts int64) int64 {
		if ts >= lo && ts < hi {
			return 1
		}
		return 0
	}
	n, k := int64(0), 0
	for r := range s.part.users {
		u, c := &s.part.users[r], s.part.recCount(r)
		n += in(u.firstTS)
		if c >= 2 {
			n += in(u.lastTS)
		}
		for ; c > 2; c-- {
			n += in(s.mids[k])
			k++
		}
	}
	return n
}

// partialBytes is the partial heap b holds: its partial, plus a restored
// partial it keeps for counting after an append invalidated it, plus the
// interior times.
func (b *bucket) partialBytes() int64 {
	n := b.part.bytes()
	if s := b.stored; s != nil {
		n += 8 * int64(len(s.mids))
		if s.part != b.part {
			n += s.part.bytes()
		}
	}
	return n
}

// NewAggregator builds the ring and its assignment machinery (one grid
// resolver per slot, built once for the aggregator's lifetime).
func NewAggregator(opts Options) (*Aggregator, error) {
	sh, err := NewShape(opts)
	if err != nil {
		return nil, err
	}
	return sh.NewAggregator(), nil
}

// NewAggregator stamps a fresh empty aggregator onto the shared shape.
// Aggregators sharing a Shape are independent: only the immutable
// assignment machinery is shared.
func (sh *Shape) NewAggregator() *Aggregator {
	a := &Aggregator{Shape: sh, buckets: map[int64]*bucket{}}
	for _, f := range sh.rollups {
		a.tiers = append(a.tiers, newRollupTier(f))
	}
	return a
}

// NewShape builds the immutable assignment machinery for opts' bucket
// width (one grid resolver per scale slot). The slots are always the
// paper's: census.Scales() at their paper radii, then the metro 0.5 km
// variant (Fig. 3b). The Shape can back any number of aggregators.
func NewShape(opts Options) (*Shape, error) {
	width := opts.BucketWidth
	if width == 0 {
		width = time.Hour
	}
	if width < time.Millisecond {
		return nil, fmt.Errorf("live: bucket width must be at least 1ms, got %v", width)
	}
	a := &Shape{width: width.Milliseconds(), scales: census.Scales(), slotOf: map[census.Scale]int{}}
	a.metroSlot = len(a.scales)
	gaz := census.Australia()
	mappers := make([]*mobility.AreaMapper, a.metroSlot+1)
	for s := range mappers {
		sc, radius := census.ScaleMetropolitan, 500.0
		if s < a.metroSlot {
			sc, radius = a.scales[s], 0 // zero: the scale's paper radius
			a.slotOf[sc] = s
		}
		rs, err := gaz.Regions(sc)
		if err != nil {
			return nil, fmt.Errorf("live: regions for %s: %w", sc, err)
		}
		m, err := mobility.NewAreaMapper(rs, radius)
		if err != nil {
			return nil, fmt.Errorf("live: mapper for %s at radius %g: %w", sc, radius, err)
		}
		a.regions = append(a.regions, rs)
		a.slotRadius = append(a.slotRadius, m.Radius())
		mappers[s] = m
	}
	msm, err := mobility.NewMultiScaleMapper(mappers...)
	if err != nil {
		return nil, fmt.Errorf("live: bundle mappers: %w", err)
	}
	a.msm = msm
	a.slots = len(mappers)
	a.wordsPerSlot = make([]int, a.slots)
	a.wordOff = make([]int, a.slots)
	for s, rs := range a.regions {
		a.wordOff[s] = a.totalWords
		a.wordsPerSlot[s] = (len(rs.Areas) + 63) / 64
		a.totalWords += a.wordsPerSlot[s]
		if len(rs.Areas) > math.MaxInt16 {
			return nil, fmt.Errorf("live: %d areas at slot %d exceed the int16 assignment encoding", len(rs.Areas), s)
		}
	}
	a.zeroWords = make([]uint64, a.totalWords)
	for s := range a.scales {
		a.accOff = append(a.accOff, a.accLen)
		a.accLen += len(a.regions[s].Areas) * len(a.regions[s].Areas)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "w=%d;slots=%d;metro=%d;", a.width, a.slots, a.metroSlot)
	for i, sc := range a.scales {
		fmt.Fprintf(h, "s%d=%s;", i, sc)
	}
	for s, rs := range a.regions {
		fmt.Fprintf(h, "r%d=%d:%x;", s, len(rs.Areas), math.Float64bits(a.slotRadius[s]))
	}
	a.hash = h.Sum64()
	a.rollups = rollupFactors(a.width)
	return a, nil
}

// Width returns the bucket width.
func (a *Aggregator) Width() time.Duration { return time.Duration(a.width) * time.Millisecond }

// Ingested returns the number of records accepted into the ring.
func (a *Aggregator) Ingested() int64 { return a.ingested.Load() }

// Builds returns the number of full-bucket partial materialisations — the
// observable cost of invalidation: an ingest into bucket b forces at most
// one rebuild of b's partial, and no other bucket's.
func (a *Aggregator) Builds() int64 { return a.builds.Load() }

// ResidentBytes is the heap a ring holds, counted from the lengths of its
// columns: the raw pre-resolved records, the bucket partials built from
// them and the cached rollup merges.
type ResidentBytes struct {
	Records  int64 `json:"records"`
	Partials int64 `json:"partials"`
	Rollups  int64 `json:"rollups"`
}

// Add sums o into rb, kind by kind.
func (rb *ResidentBytes) Add(o ResidentBytes) {
	rb.Records += o.Records
	rb.Partials += o.Partials
	rb.Rollups += o.Rollups
}

// Total is the sum over the kinds.
func (rb ResidentBytes) Total() int64 { return rb.Records + rb.Partials + rb.Rollups }

// ResidentBytes reports the ring's resident heap by kind.
func (a *Aggregator) ResidentBytes() ResidentBytes {
	return ResidentBytes{Records: a.resRecords.Load(), Partials: a.resPartials.Load(), Rollups: a.resRollups.Load()}
}

// recordBytes is what n records hold across a bucket's four columns.
func (sh *Shape) recordBytes(n int) int64 {
	return int64(n) * int64(int(unsafe.Sizeof(tweet.Tweet{}))+2*sh.slots+3*8+8)
}

// HeldSlots returns the placement slots (ring.SlotOf) whose users have
// records in the ring, bit k for slot k.
func (a *Aggregator) HeldSlots() uint16 { return uint16(a.held.Load()) }

// StoreOnlyBuckets returns the number of restored buckets whose records
// have not been read back from the store.
func (a *Aggregator) StoreOnlyBuckets() int64 { return a.storeOnly.Load() }

// setPartLocked replaces b's materialised partial (nil invalidates it).
// Caller holds a.mu; beyond b it touches only an atomic, so builds of
// different buckets may call it side by side.
func (a *Aggregator) setPartLocked(b *bucket, p *partial) {
	before := b.partialBytes()
	b.part = p
	a.resPartials.Add(b.partialBytes() - before)
}

// reloadLocked reads the records of the store-only buckets in lists
// back in one windowed scan of the restore's covered
// segments, resolves them and appends them beside the rows routed since
// the restore. No reader can tell: they are the records the restored
// partial was built from, so revisions, stamps and partials stay, and
// Ingested already counts them. The covered segments do not change while
// the ring lives, so the scan counts every record exactly once; a count
// that disagrees with the partial's is an error, never a changed answer.
// Caller holds a.mu.
func (a *Aggregator) reloadLocked(lists ...[]int64) error {
	var need []int64
	for _, idxs := range lists {
		for _, idx := range idxs {
			if a.buckets[idx].stored != nil {
				need = append(need, idx)
			}
		}
	}
	if len(need) == 0 {
		return nil
	}
	t0 := time.Now()
	slices.Sort(need)
	need = slices.Compact(need)
	want := make(map[int64]int64, len(need))
	for _, idx := range need {
		want[idx] = 0
	}
	o := a.origin
	q := tweetdb.Query{Files: o.files, FromTS: need[0] * a.width, ToTS: (need[len(need)-1] + 1) * a.width}
	var batch tweet.Batch
	it := o.store.Scan(q)
	defer it.Close()
	for {
		blk, ok := it.NextBlock()
		if !ok {
			break
		}
		for i := 0; i < blk.Len(); i++ {
			idx := a.bucketIdx(blk.TS[i])
			if n, ok := want[idx]; ok {
				want[idx] = n + 1
				batch.Append(blk.Row(i))
			}
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("live: reload buckets from the store: %w", err)
	}
	for _, idx := range need {
		if got, n := want[idx], a.buckets[idx].stored.part.tweets; got != n {
			return fmt.Errorf("live: reload bucket %d: the covered segments hold %d records, the snapshot %d", idx, got, n)
		}
	}
	if err := batch.Validate(); err != nil {
		return fmt.Errorf("live: reload: %w", err)
	}
	r := a.Resolve(&batch)
	a.appendRowsLocked(&batch, r)
	r.release()
	for _, idx := range need {
		b := a.buckets[idx]
		before := b.partialBytes()
		b.stored, b.sorted = nil, false
		a.resPartials.Add(b.partialBytes() - before)
	}
	a.resRecords.Add(a.recordBytes(batch.Len()))
	a.storeOnly.Add(-int64(len(need)))
	mRingReloads.Add(int64(len(need)))
	mRingReloadSecs.Observe(time.Since(t0).Seconds())
	return nil
}

// Buckets returns the number of live buckets in the ring.
func (a *Aggregator) Buckets() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buckets)
}

// bucketIdx maps a timestamp to its bucket index (floor division, exact
// for negative timestamps too).
func (a *Aggregator) bucketIdx(ts int64) int64 {
	idx := ts / a.width
	if ts%a.width != 0 && ts < 0 {
		idx--
	}
	return idx
}

// IngestBatch routes one batch into the ring: every record is validated,
// resolved through the multi-scale assignment hot path exactly once, and
// appended — with its cached assignments, cell id and unit vector — to
// its time bucket. Each touched bucket's revision advances once per
// batch and its materialised partial is invalidated; untouched buckets
// (and every cached result derived from them alone) stay warm. The batch
// is only read, never retained.
func (a *Aggregator) IngestBatch(b *tweet.Batch) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("live: ingest: %w", err)
	}
	r := a.Resolve(b)
	a.appendResolved(b, r)
	r.release()
	return nil
}

// resolved is what a batch's records are, wherever they end up: per
// record the area assignment at every scale slot, the unit sphere vector
// and the geohash cell, parallel to the batch with strides slots/3/1,
// and the mask of the authors' placement slots.
// Computing it is the expensive half of a ring write and reads only the
// immutable Shape, so it runs off every lock; appendResolved is the other
// half.
type resolved struct {
	assign []int16
	vecs   []float64
	cells  []uint64
	slots  uint16
}

// resolvedPool recycles Resolve's columns, so a steady feed allocates
// nothing; whoever releases one must not touch it again.
var resolvedPool = sync.Pool{New: func() any { return new(resolved) }}

func (r *resolved) release() { resolvedPool.Put(r) }

// Resolve is the resolve stage over a whole (valid) batch, into pooled
// columns the caller releases.
func (sh *Shape) Resolve(b *tweet.Batch) *resolved {
	r, n, slots := resolvedPool.Get().(*resolved), b.Len(), sh.slots
	r.assign = slices.Grow(r.assign[:0], n*slots)[:n*slots]
	r.vecs = slices.Grow(r.vecs[:0], 3*n)[:3*n]
	r.cells = slices.Grow(r.cells[:0], n)[:n]
	r.slots = 0
	sh.msm.MapAllBatch(b.Lat, b.Lon, r.assign, slots)
	for i := range r.cells {
		pt := geo.Point{Lat: b.Lat[i], Lon: b.Lon[i]}
		r.vecs[3*i], r.vecs[3*i+1], r.vecs[3*i+2] = mobility.UnitVec(pt)
		r.cells[i] = geo5(pt)
		r.slots |= 1 << ring.SlotOf(b.UserID[i])
	}
	return r
}

// appendResolved is where a record goes: b's records, with what Resolve
// made of them, land in their time buckets under a.mu — pure appends and
// revision bumps. Each touched bucket's revision advances once and its
// partial is invalidated. b must be valid and r, which is only read,
// resolved from it under a's Shape.
func (a *Aggregator) appendResolved(b *tweet.Batch, r *resolved) {
	a.mu.Lock()
	defer a.mu.Unlock()
	touched := a.appendRowsLocked(b, r)
	// In bucket order: the revisions left depend on ring and batch alone.
	slices.Sort(touched)
	for _, idx := range slices.Compact(touched) {
		bk := a.buckets[idx]
		bk.sorted = false
		a.touchLocked(idx, bk)
	}
	a.acceptLocked(int64(b.Len()))
}

// appendRowsLocked appends b's rows and r's columns for them to their
// buckets, adding buckets that are new, and returns the bucket of each
// run. Records land in bucket-contiguous runs (time-ordered feeds put
// whole batches in one or two buckets), so each run costs one map lookup
// and four bulk appends instead of per-record slice growth. Caller holds
// a.mu.
func (a *Aggregator) appendRowsLocked(b *tweet.Batch, r *resolved) []int64 {
	n, slots := b.Len(), a.slots
	a.held.Or(uint32(r.slots))
	var runs []int64
	for i := 0; i < n; {
		idx := a.bucketIdx(b.TS[i])
		j := i + 1
		for j < n && a.bucketIdx(b.TS[j]) == idx {
			j++
		}
		bk := a.bucketLocked(idx)
		runs = append(runs, idx)
		bk.assign = append(bk.assign, r.assign[i*slots:j*slots]...)
		bk.vecs = append(bk.vecs, r.vecs[3*i:3*j]...)
		bk.cells = append(bk.cells, r.cells[i:j]...)
		off := len(bk.tweets)
		bk.tweets = slices.Grow(bk.tweets, j-i)[:off+j-i]
		for k := i; k < j; k++ {
			bk.tweets[off+k-i] = b.Row(k)
		}
		i = j
	}
	return runs
}

// touchLocked is the one place a bucket revision is assigned: bucket idx
// changed, so it takes the next ring revision, drops its partial, and
// stamps its group in every rollup tier with that revision. Caller holds
// a.mu.
func (a *Aggregator) touchLocked(idx int64, b *bucket) {
	a.rev++
	b.rev = a.rev
	a.setPartLocked(b, nil)
	for _, t := range a.tiers {
		t.revs[floorDiv(idx, t.factor)] = a.rev
	}
}

// acceptLocked counts n records appended to the ring, moving the
// aggregator's own counter and the process-wide series together. Caller
// holds a.mu.
func (a *Aggregator) acceptLocked(n int64) {
	a.ingested.Add(n)
	mRingRecords.Add(n)
	a.resRecords.Add(a.recordBytes(int(n)))
}

// bucketLocked returns bucket idx, adding an empty one to the ring when
// it is new. Caller holds a.mu.
func (a *Aggregator) bucketLocked(idx int64) *bucket {
	b := a.buckets[idx]
	if b == nil {
		b = &bucket{}
		a.buckets[idx] = b
		at, _ := slices.BinarySearch(a.idxs, idx)
		a.idxs = slices.Insert(a.idxs, at, idx)
	}
	return b
}

// ensureSortedLocked establishes the canonical (user, time, id) order of
// the bucket's parallel arrays, records equal in all three in arrival
// order. It sorts positions, not records (sortByUser, then each user's
// positions by time where arrival order was not already that), and then
// moves each record once, along the permutation's cycles. Caller holds
// a.mu.
func ensureSortedLocked(b *bucket, slots int) {
	if b.sorted {
		return
	}
	b.sorted = true
	n := len(b.tweets)
	keys := make([]userKey, n)
	for i := range b.tweets {
		keys[i] = userKey{user: uint64(b.tweets[i].UserID) ^ 1<<63, at: int32(i)}
	}
	keys = sortByUser(keys, make([]userKey, n))
	byTime := func(x, y userKey) int {
		if c := cmp.Compare(b.tweets[x.at].TS, b.tweets[y.at].TS); c != 0 {
			return c
		}
		return cmp.Compare(b.tweets[x.at].ID, b.tweets[y.at].ID)
	}
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi = lo + 1; hi < n && keys[hi].user == keys[lo].user; hi++ {
		}
		if !slices.IsSortedFunc(keys[lo:hi], byTime) {
			slices.SortStableFunc(keys[lo:hi], byTime)
		}
	}
	// keys[j].at is the record that belongs at j; a visited j is marked -1.
	var assign [8]int16
	for start := range keys {
		if from := keys[start].at; from < 0 || int(from) == start {
			continue
		}
		tw, cell, vec := b.tweets[start], b.cells[start], [3]float64(b.vecs[3*start:])
		copy(assign[:slots], b.assign[start*slots:])
		j := start
		for {
			k := int(keys[j].at)
			keys[j].at = -1
			if k == start {
				break
			}
			b.tweets[j], b.cells[j] = b.tweets[k], b.cells[k]
			copy(b.vecs[3*j:3*j+3], b.vecs[3*k:])
			copy(b.assign[j*slots:(j+1)*slots], b.assign[k*slots:])
			j = k
		}
		b.tweets[j], b.cells[j] = tw, cell
		copy(b.vecs[3*j:], vec[:])
		copy(b.assign[j*slots:], assign[:slots])
	}
}

// userKey is a record position (or a partial row, with its part) keyed
// by its user id, the sign bit flipped so that ids order unsigned.
type userKey struct {
	user     uint64
	at, part int32
}

// sortByUser sorts keys by user, equal users keeping their order: a
// byte-wise radix sort that skips the bytes all users share, with tmp (as
// long as keys) as scratch, or an insertion-friendly stable sort for a
// handful; keys already in order are left as they are. It returns the
// sorted slice, which is keys or tmp.
func sortByUser(keys, tmp []userKey) []userKey {
	if len(keys) < 64 {
		slices.SortStableFunc(keys, func(x, y userKey) int { return cmp.Compare(x.user, y.user) })
		return keys
	}
	or, and, sorted := uint64(0), ^uint64(0), true
	for i, k := range keys {
		or, and = or|k.user, and&k.user
		sorted = sorted && (i == 0 || keys[i-1].user <= k.user)
	}
	if sorted {
		return keys
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, k := range keys {
			next[k.user>>shift&0xff]++
		}
		at := 0
		for d, c := range next {
			next[d], at = at, at+c
		}
		for _, k := range keys {
			d := k.user >> shift & 0xff
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// window resolves a plan's [FromTS, ToTS) bounds into effective record
// bounds, replicating the streaming pass's epoch-sentinel semantics: a
// lower bound is applied whenever any in-stream filtering is on.
func window(info *core.PlanInfo) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if info.FromTS != 0 || info.HasTo {
		lo = info.FromTS
	}
	if info.HasTo {
		hi = info.ToTS
	}
	return lo, hi
}

// rangeLocked returns the live bucket indexes, ascending, that the record
// window [lo, hi) touches (a sub-slice of a.idxs). Caller holds a.mu.
func (a *Aggregator) rangeLocked(lo, hi int64) []int64 {
	i, j := 0, len(a.idxs)
	if lo != math.MinInt64 {
		i, _ = slices.BinarySearch(a.idxs, a.bucketIdx(lo))
	}
	if hi != math.MaxInt64 {
		j, _ = slices.BinarySearch(a.idxs, a.bucketIdx(hi-1)+1)
	}
	if i >= j {
		return nil
	}
	return a.idxs[i:j]
}

// collectCov gathers, under the lock, the chronological partials covering
// [lo, hi): cached rollup-tier partials for every aligned group of
// buckets the window fully covers (coarsest tier first), the
// materialised partial of every remaining fully covered bucket (built on
// demand), plus freshly built residual partials for the at most two
// partially covered edge buckets. A non-nil cov records which spans
// served the window (FoldCoverage). A non-nil recs gets the window's
// records appended under the same lock, so they are the records the
// partials were folded from. Residual partials and recs hold only the
// users whose placement slots are in keep, the users the fold folds.
// With dry set the same span selection runs in counting-only mode — no
// partials are built, merged, reloaded or returned and no build caches
// or counters are touched — which is what keeps EXPLAIN ANALYZE
// side-effect-free.
//
// The selection only gathers: which groups and buckets the window takes,
// which of them lack their partial, and which edges need records.
// materialiseLocked then reads back what is store-only and builds
// everything lacking at once, so a cold ring is materialised on every
// processor and a warm one — nothing lacking, or the one edge bucket —
// pays nothing for it.
func (a *Aggregator) collectCov(lo, hi int64, keep uint16, cov *FoldCoverage, dry bool, recs *[]tweet.Tweet) ([]*partial, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	idxs := a.rangeLocked(lo, hi)
	if len(idxs) == 0 {
		return nil, nil
	}
	if recs != nil {
		// One scan reads back every store-only bucket of the window, so
		// materialiseLocked finds none left to read.
		if err := a.reloadLocked(idxs); err != nil {
			return nil, err
		}
		*recs = a.appendWindowLocked(*recs, idxs, lo, hi, keep)
	}
	loIdx, hiIdx, edgeIdx := idxs[0], idxs[len(idxs)-1], a.idxs[len(a.idxs)-1]
	type span struct {
		start int64
		p     *partial
	}
	var (
		spans   []span      // groups and full buckets once built, then residuals
		groups  []groupPick // the rollup groups taken, coarsest tier first
		full    []int64     // the fully covered buckets taken one by one
		missing []int64     // those of full whose partial is not materialised
		edges   []int64     // the partially covered edge buckets
	)
	used := make([]bool, len(idxs)) // parallel to idxs
	// Coarsest tier first. A group is usable only when the window covers
	// its whole time range — every live bucket inside it contributes
	// fully and the cached merge is window-independent — and the group
	// is closed: the ring has moved past its end. An open group's merge
	// would be invalidated by every append at the edge, so the open day
	// and month are served by their closed sub-groups and buckets.
	for t := len(a.tiers) - 1; t >= 0; t-- {
		tier := a.tiers[t]
		for g := floorDiv(loIdx, tier.factor); g <= floorDiv(hiIdx, tier.factor); g++ {
			gLo, gHi := g*tier.factor, (g+1)*tier.factor
			if !(lo == math.MinInt64 || lo <= gLo*a.width) || !(hi == math.MaxInt64 || hi >= gHi*a.width) || edgeIdx < gHi {
				continue
			}
			// The window covers the group, so its live buckets (never
			// empty: a bucket is created by its first record) are a run
			// of idxs.
			m0, _ := slices.BinarySearch(idxs, gLo)
			m1, _ := slices.BinarySearch(idxs, gHi)
			members := idxs[m0:m1]
			if len(members) < 2 || slices.Contains(used[m0:m1], true) {
				continue
			}
			for i := m0; i < m1; i++ {
				used[i] = true
			}
			if dry {
				// Every member bucket holds records, so the merged
				// rollup partial is necessarily seen.
				cov.addTier(tier.factor, len(members))
			} else {
				groups = append(groups, a.pickGroupLocked(tier, g, members))
			}
		}
	}
	for k, idx := range idxs {
		if used[k] {
			continue
		}
		b := a.buckets[idx]
		if start, end := idx*a.width, (idx+1)*a.width; lo > start || hi < end {
			// Partially covered edge bucket: residual partial over the
			// in-window slice, built fresh (it depends on the request
			// window, not just the bucket).
			if !dry {
				edges = append(edges, idx)
			} else if n := a.countLocked(b, max(lo, start), min(hi, end)); n > 0 {
				cov.addResidual(n)
			}
			continue
		}
		if dry {
			// Every bucket holds records, so the full bucket partial is
			// necessarily seen.
			cov.addFull()
			continue
		}
		full = append(full, idx)
		if b.part == nil {
			missing = append(missing, idx)
		}
	}
	if dry {
		return nil, nil
	}
	if err := a.materialiseLocked(groups, missing, edges); err != nil {
		return nil, err
	}
	for _, pk := range groups {
		if pk.part.seen {
			spans = append(spans, span{start: pk.g * pk.tier.factor, p: pk.part})
			cov.addTier(pk.tier.factor, len(pk.members))
		}
	}
	for _, idx := range full {
		if p := a.buckets[idx].part; p.seen {
			spans = append(spans, span{start: idx, p: p})
			cov.addFull()
		}
	}
	for _, idx := range edges {
		b := a.buckets[idx]
		ensureSortedLocked(b, a.slots)
		if p := a.buildRange(b, max(lo, idx*a.width), min(hi, (idx+1)*a.width), keep); p.seen {
			spans = append(spans, span{start: idx, p: p})
			cov.addResidual(p.tweets)
		}
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	parts := make([]*partial, len(spans))
	for i, sp := range spans {
		parts[i] = sp.p
	}
	return parts, nil
}

// countLocked counts b's records with times in [lo, hi) — resident rows
// and stored ones alike — without building or reading anything back.
// Caller holds a.mu.
func (a *Aggregator) countLocked(b *bucket, lo, hi int64) int64 {
	var n int64
	for i := range b.tweets {
		if ts := b.tweets[i].TS; ts >= lo && ts < hi {
			n++
		}
	}
	if b.stored != nil {
		n += b.stored.count(lo, hi)
	}
	return n
}

// materialiseLocked builds what one window's selection lacks: the
// partial of every bucket in missing and of every member of a stale
// group, then the stale groups' merges — each batch on every processor.
// The store-only buckets among them and among edges (which the caller
// builds residuals over) are read back first, in one scan.
// The caller holds a.mu throughout, so nothing else touches the ring; the
// groups one window takes are disjoint in buckets, a bucket build sorts
// and reads only its own bucket, a merge only reads finished partials,
// and both write fresh memory. The cache maps and counters are updated
// serially afterwards. One missing bucket — the steady edge step — is
// built inline.
func (a *Aggregator) materialiseLocked(groups []groupPick, missing, edges []int64) error {
	var stale []*groupPick
	for i := range groups {
		if pk := &groups[i]; pk.part == nil {
			stale = append(stale, pk)
			for _, idx := range pk.members {
				if a.buckets[idx].part == nil {
					missing = append(missing, idx)
				}
			}
		}
	}
	if err := a.reloadLocked(missing, edges); err != nil {
		return err
	}
	runTasks(len(missing), func(i int) {
		b := a.buckets[missing[i]]
		ensureSortedLocked(b, a.slots)
		a.setPartLocked(b, a.buildRange(b, math.MinInt64, math.MaxInt64, allSlots))
	})
	a.builds.Add(int64(len(missing)))
	mRingBuilds.Add(int64(len(missing)))
	runTasks(len(stale), func(i int) {
		pk := stale[i]
		parts := make([]*partial, 0, len(pk.members))
		for _, idx := range pk.members {
			if p := a.buckets[idx].part; p.seen {
				parts = append(parts, p)
			}
		}
		pk.part = a.mergePartials(parts)
	})
	for _, pk := range stale {
		a.setGroupLocked(pk.tier, pk.g, &rollupGroup{stamp: pk.stamp, part: pk.part})
		pk.tier.builds.Add(1)
		pk.tier.mBuilds.Inc()
	}
	return nil
}

// setGroupLocked caches group g's merge in tier t. Caller holds a.mu.
func (a *Aggregator) setGroupLocked(t *rollupTier, g int64, grp *rollupGroup) {
	if old := t.groups[g]; old != nil {
		a.resRollups.Add(-old.part.bytes())
	}
	a.resRollups.Add(grp.part.bytes())
	t.groups[g] = grp
}

// coverageKey fingerprints the bucket coverage of the record window
// [lo, hi) (math.MinInt64/MaxInt64 for unbounded sides). A cached result
// keyed on it stays valid exactly until an ingest lands in a bucket the
// window touches — or, for unbounded windows, anywhere.
func (a *Aggregator) coverageKey(lo, hi int64) string {
	h := fnv.New64a()
	a.hashCoverage(h, lo, hi)
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashCoverage feeds h the bucket width, then walks the live buckets the
// window touches in ascending order, coarsest tier first: one (tier,
// group, stamp) entry per rollup group lying wholly between the first
// and the last of them, and (index, revision) only for the remaining
// buckets. A touch gives its bucket and its groups a
// revision the ring never issued before, so the entries change exactly
// when a bucket in the window is created or changed — at a cost of
// O(groups), not O(buckets), for a wide window.
func (a *Aggregator) hashCoverage(h hash.Hash64, lo, hi int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fmt.Fprintf(h, "w=%d;", a.width)
	idxs := a.rangeLocked(lo, hi)
	if len(idxs) == 0 {
		return
	}
	loIdx, hiIdx := idxs[0], idxs[len(idxs)-1]
	var kb [24]byte // h may keep what it is handed, so one buffer escapes, not one per entry
	n := 0          // tiers nest: those with a whole group in range are the finest n
	for n < len(a.tiers) && (floorDiv(loIdx-1, a.tiers[n].factor)+2)*a.tiers[n].factor-1 <= hiIdx {
		n++
	}
	for i := 0; i < len(idxs); {
		// idxs[i] is the first bucket of any group it takes.
		idx, next := idxs[i], i+1
		tag, id, rev := uint64(0), idx, a.buckets[idx].rev
		for t := n - 1; t >= 0; t-- {
			tier := a.tiers[t]
			g := floorDiv(idx, tier.factor)
			if gHi := (g + 1) * tier.factor; g*tier.factor >= loIdx && gHi-1 <= hiIdx {
				tag, id, rev = uint64(tier.factor), g, tier.revs[g]
				n, _ := slices.BinarySearch(idxs[i:], gHi)
				next = i + n
				break
			}
		}
		w := wire.NewWriter(kb[:0])
		w.U64(tag)
		w.I64(id)
		w.U64(rev)
		h.Write(w.Bytes())
		i = next
	}
}

// CoverageKeyRequest is coverageKey for a request's window.
func (a *Aggregator) CoverageKeyRequest(req core.Request) (string, error) {
	_, lo, hi, err := plan(req)
	if err != nil {
		return "", err
	}
	return a.coverageKey(lo, hi), nil
}

// plan plans req and resolves its record window. The error is the
// request's own validation error.
func plan(req core.Request) (info *core.PlanInfo, lo, hi int64, err error) {
	if info, err = core.PlanRequest(req); err != nil {
		return nil, 0, 0, err
	}
	lo, hi = window(info)
	return info, lo, hi, nil
}

// Query answers req by folding the materialised partials covering its
// window and assembling the Result through core.AssembleFolded. The
// result is bit-identical to Study.Execute over the same records (see
// the property tests), at a custom radius too (FoldSlots).
func (a *Aggregator) Query(req core.Request) (*core.Result, error) {
	sp, err := a.FoldPartial(req)
	if err != nil {
		return nil, err
	}
	// One ascending-id run cannot collide with itself.
	sp.Stats, _ = FlattenUsers(sp.Tweets, sp.Users)
	return core.AssembleFolded(req, &sp.FoldedPass)
}

// WindowTweets copies the ring's records in [lo, hi) (unbounded sides as
// math.MinInt64/MaxInt64) into a fresh slice in canonical (user, time)
// order — the exact substream a compacted store scan would yield. Like
// Query it touches the store only to read store-only buckets back, once.
func (a *Aggregator) WindowTweets(lo, hi int64) ([]tweet.Tweet, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	idxs := a.rangeLocked(lo, hi)
	if err := a.reloadLocked(idxs); err != nil {
		return nil, err
	}
	out := a.appendWindowLocked(nil, idxs, lo, hi, allSlots)
	sort.Sort(tweet.ByUserTime(out))
	return out, nil
}

// appendWindowLocked appends the records of buckets idxs with times in
// [lo, hi) of the users whose placement slots are in keep to out, in
// bucket order. The buckets hold their records: caller read any
// store-only one back and holds a.mu.
func (a *Aggregator) appendWindowLocked(out []tweet.Tweet, idxs []int64, lo, hi int64, keep uint16) []tweet.Tweet {
	for _, idx := range idxs {
		b := a.buckets[idx]
		for i := range b.tweets {
			if t := &b.tweets[i]; t.TS >= lo && (hi == math.MaxInt64 || t.TS < hi) && (keep == allSlots || keep&(1<<ring.SlotOf(t.UserID)) != 0) {
				out = append(out, *t)
			}
		}
	}
	return out
}
