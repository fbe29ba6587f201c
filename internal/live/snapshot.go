package live

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweetdb"
	"geomob/internal/wire"
)

// Snapshot-commit metrics (DESIGN.md §12).
var (
	mSnapCommits    = obs.Def.Counter("geomob_snapshot_commits_total", "Snapshot manifest commits that wrote at least the manifest.")
	mSnapFiles      = obs.Def.Counter("geomob_snapshot_files_written_total", "Snapshot files written by snapshot commits.")
	mSnapBytes      = obs.Def.Counter("geomob_snapshot_bytes_written_total", "Snapshot file bytes written by snapshot commits.")
	mSnapCommitSecs = obs.Def.Histogram("geomob_snapshot_commit_seconds", "Latency of one snapshot commit.", nil)
)

// Durable ring snapshots (DESIGN.md §11). A snapshot is the ring's
// published partials, not its records: one file per file group — a day
// of hour buckets at the default width — holding each live bucket's
// partial and every closed rollup merge homed in that group whose cached
// stamp was current at capture, each partial as individually CRC'd
// sections of its own columns. The fixed-point vector sums and the
// bounding boxes travel as raw bits, so a restored ring folds
// bit-identically to the ring that wrote it. A manifest names the files
// and the store segments they reflect; restart installs the partials of
// every intact file without building anything, replays only the segment
// tail, and degrades each missing, corrupt or version-mismatched file to
// a windowed cold backfill of its group — never a panic, never a changed
// answer.

const (
	snapMagic        = uint32(0x4e534d47) // "GMSN"
	snapVersion      = uint16(3)
	manifestVersion  = 3
	snapHeader       = 40 // magic, version, reserved, shape hash, width, group, part count, CRC
	snapPartHeader   = 60 // factor, index, bbox, user rows, flow cells, CRC
	snapSections     = 7  // users, areas, marks, cells, sums, flows, mids
	snapManifestName = "SNAPSHOT.json"
	snapSuffix       = ".gmsnap"
)

// errSnapshotCorrupt marks an unreadable or mismatched snapshot file.
var errSnapshotCorrupt = errors.New("live: snapshot corrupt")

// fileSpan is how many base buckets share one snapshot file: the finest
// rollup group (a day at the default hourly width), else one. Every
// coarser tier nests it, so a merge's home — the file of its group's
// first bucket — is always a whole file group.
func (sh *Shape) fileSpan() int64 {
	if len(sh.rollups) > 0 {
		return sh.rollups[0]
	}
	return 1
}

// snapPart is one partial a snapshot file carries: a bucket's (factor 1),
// with the interior record times a dry coverage count reads, or a closed
// rollup group's merge (factor = the tier's), which carries none.
type snapPart struct {
	factor, idx int64
	rev         uint64 // the bucket revision or group stamp at capture
	part        *partial
	mids        []int64
}

// snapFile is one file group's content: its buckets ascending, then its
// merges finest tier first.
type snapFile struct {
	group int64
	parts []snapPart
}

// buckets and records count the file's bucket partials and their records.
func (f *snapFile) buckets() (n int, records int64) {
	for i := range f.parts {
		if f.parts[i].factor == 1 {
			n++
			records += f.parts[i].part.tweets
		}
	}
	return n, records
}

// homeMark is what a captured file holds of one rollup group homed in
// it: the stamp of the merge it carries, 0 for none.
type homeMark struct {
	tier  *rollupTier
	g     int64
	stamp uint64
}

// capturedFile is one file group at capture and, when it changed since
// the last commit, its new content and the merges that content holds.
type capturedFile struct {
	group int64
	dirty *snapFile // nil: the last commit's file still holds it
	homes []homeMark
}

// RingCapture is a consistent snapshot of ring state: every file group
// holding a live bucket or a rollup merge, and for those that changed
// since the last commit, pointers to their published partials — which
// are immutable, so nothing is copied. Taken under the ingest lock, it
// lines up exactly with a store segment catalogue read at the same
// moment.
type RingCapture struct {
	sh    *Shape
	files []capturedFile
}

// Capture takes the ring's file groups and the partials of the changed
// ones. A changed group's bucket that lacks its partial is built first,
// in one batch on every processor, and read back from the store first
// if it is store-only. Callers that pair the capture with a store
// catalogue must hold the lock that orders store appends before ring
// routes (the Ingestor's, or a cluster shard's).
func (a *Aggregator) Capture() (*RingCapture, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	span := a.fileSpan()
	var groups []int64
	for _, idx := range a.idxs {
		if g, n := floorDiv(idx, span), len(groups); n == 0 || groups[n-1] != g {
			groups = append(groups, g)
		}
	}
	for _, t := range a.tiers[min(1, len(a.tiers)):] { // the finest tier is homed in its own group
		for g := range t.revs {
			if t.snapped[g] != 0 || t.current(g) != nil {
				groups = append(groups, g*t.factor/span)
			}
		}
	}
	slices.Sort(groups)
	c := &RingCapture{sh: a.Shape}
	var missing []int64
	for _, fg := range slices.Compact(groups) {
		lo, _ := slices.BinarySearch(a.idxs, fg*span)
		hi, _ := slices.BinarySearch(a.idxs, (fg+1)*span)
		cf := capturedFile{group: fg}
		dirty := false
		for _, idx := range a.idxs[lo:hi] {
			if b := a.buckets[idx]; b.rev != b.snapRev {
				dirty = true
			}
		}
		for _, t := range a.tiers {
			if start := fg * span; start%t.factor == 0 {
				g := start / t.factor
				hm := homeMark{tier: t, g: g}
				if grp := t.current(g); grp != nil {
					hm.stamp = grp.stamp
				}
				if hm.stamp != 0 || t.snapped[g] != 0 {
					cf.homes = append(cf.homes, hm)
					dirty = dirty || hm.stamp != t.snapped[g]
				}
			}
		}
		if dirty {
			cf.dirty = &snapFile{group: fg}
			for _, idx := range a.idxs[lo:hi] {
				if a.buckets[idx].part == nil {
					missing = append(missing, idx)
				}
			}
		}
		c.files = append(c.files, cf)
	}
	if err := a.materialiseLocked(nil, missing, nil); err != nil {
		return nil, err
	}
	for i := range c.files {
		cf := &c.files[i]
		if cf.dirty == nil {
			continue
		}
		lo, _ := slices.BinarySearch(a.idxs, cf.group*span)
		hi, _ := slices.BinarySearch(a.idxs, (cf.group+1)*span)
		for _, idx := range a.idxs[lo:hi] {
			b := a.buckets[idx]
			cf.dirty.parts = append(cf.dirty.parts, snapPart{factor: 1, idx: idx, rev: b.rev, part: b.part, mids: a.midsLocked(b)})
		}
		for _, hm := range cf.homes {
			if hm.stamp != 0 {
				cf.dirty.parts = append(cf.dirty.parts, snapPart{factor: hm.tier.factor, idx: hm.g, rev: hm.stamp, part: hm.tier.groups[hm.g].part})
			}
		}
	}
	return c, nil
}

// midsLocked returns the interior record times of b's partial rows — for
// each user row of three or more records, the times between its first
// and last — which a dry coverage count of a store-only bucket needs.
// Caller holds a.mu; b's partial is built.
func (a *Aggregator) midsLocked(b *bucket) []int64 {
	if b.stored != nil {
		return b.stored.mids
	}
	ensureSortedLocked(b, a.slots)
	var mids []int64
	for i := 0; i < len(b.tweets); {
		j := i + 1
		for j < len(b.tweets) && b.tweets[j].UserID == b.tweets[i].UserID {
			j++
		}
		for k := i + 1; k < j-1; k++ {
			mids = append(mids, b.tweets[k].TS)
		}
		i = j
	}
	return mids
}

// MarkSnapshotted records, after a successful commit, that the captured
// revisions and stamps are durable: a bucket or merge untouched since
// capture goes clean; one that advanced stays dirty for the next round.
func (a *Aggregator) MarkSnapshotted(c *RingCapture) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, cf := range c.files {
		if cf.dirty == nil {
			continue
		}
		for _, sp := range cf.dirty.parts {
			if b := a.buckets[sp.idx]; sp.factor == 1 && b != nil {
				b.snapRev = sp.rev
			}
		}
		for _, hm := range cf.homes {
			if hm.stamp == 0 {
				delete(hm.tier.snapped, hm.g)
			} else {
				hm.tier.snapped[hm.g] = hm.stamp
			}
		}
	}
}

// midBytes is the width of one interior record time in a file: an offset
// from its row's first time, four bytes whenever a bucket fits them.
func (sh *Shape) midBytes() int {
	if sh.width <= 1<<32 {
		return 4
	}
	return 8
}

// encodeSnapFile serialises one file group: a CRC'd fixed header (magic,
// version, shape hash, width, group, part count), then per partial a
// CRC'd part header (factor, index, bounding-box bits, row and flow
// counts) and seven individually CRC'd sections of its columns:
//
//  1. users — per row the id (eight bytes, so rows out of order show),
//     then as uvarints the first time as an offset into the part's span,
//     last minus first time, records less one, cells less one;
//  2. areas — per row and slot the first record's area plus one as a
//     uvarint, then for rows of two or more records the last record's;
//  3. marks — the area bitset words of rows of three or more records
//     (a smaller row's marks are its first and last areas);
//  4. cells — each row's sorted distinct cell ids, four bytes each;
//  5. sums — per row the three low words of the vector sum, plus the
//     three high words for rows of eight or more records (fewer cannot
//     leave the low word's sign range);
//  6. flows — the interior transition cells: the users' placement slot
//     (one byte), the scale slot, from, to (two bytes each) and the count
//     (four bytes);
//  7. mids — a bucket's interior record times (midsLocked) as offsets
//     from their row's first time; empty for a merge.
//
// Everything else a partial holds follows from these. The encoding is
// canonical: decodeSnapFile accepts only what this function writes.
func (sh *Shape) encodeSnapFile(f *snapFile) []byte {
	w := wire.NewWriter(make([]byte, 0, 1<<12))
	w.U32(snapMagic)
	w.U16(snapVersion)
	w.Zero(2)
	w.U64(sh.hash)
	w.I64(sh.width)
	w.I64(f.group)
	w.U32(uint32(len(f.parts)))
	w.CRC(0)
	for i := range f.parts {
		sh.appendSnapPart(&w, &f.parts[i])
	}
	return w.Bytes()
}

func (sh *Shape) appendSnapPart(w *wire.Writer, sp *snapPart) {
	p, slots, tw := sp.part, sh.slots, sh.totalWords
	h := w.Len()
	w.I64(sp.factor)
	w.I64(sp.idx)
	for _, v := range [4]float64{p.bbox.MinLat, p.bbox.MinLon, p.bbox.MaxLat, p.bbox.MaxLon} {
		w.F64(v)
	}
	w.U32(uint32(len(p.users)))
	w.U32(uint32(len(p.flows)))
	w.CRC(h)
	base := sp.idx * sp.factor * sh.width
	sec := w.BeginSection()
	for r := range p.users {
		u := &p.users[r]
		w.I64(u.id)
		w.Uvarint(uint64(u.firstTS - base))
		w.Uvarint(uint64(u.lastTS - u.firstTS))
		w.Uvarint(uint64(p.recCount(r) - 1))
		w.Uvarint(uint64(len(p.userCells(r)) - 1))
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	for r := range p.users {
		for _, v := range p.firstArea[r*slots : (r+1)*slots] {
			w.Uvarint(uint64(v + 1))
		}
		if p.recCount(r) >= 2 {
			for _, v := range p.lastArea[r*slots : (r+1)*slots] {
				w.Uvarint(uint64(v + 1))
			}
		}
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	for r := range p.users {
		if p.recCount(r) >= 3 {
			for _, m := range p.marks[r*tw : (r+1)*tw] {
				w.U64(m)
			}
		}
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	// Cell ids are geohash-5 cells: 26 bits with the leading marker.
	for _, c := range p.cells {
		w.U32(uint32(c))
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	for r := range p.users {
		s := p.sums[r].Words()
		w.U64(s[1])
		w.U64(s[3])
		w.U64(s[5])
		if p.recCount(r) >= 8 {
			w.U64(s[0])
			w.U64(s[2])
			w.U64(s[4])
		}
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	for _, c := range p.flows {
		w.U8(c.pslot)
		w.U16(uint16(c.slot))
		w.U16(uint16(c.from))
		w.U16(uint16(c.to))
		w.U32(uint32(c.n))
	}
	w.EndSection(sec)
	sec = w.BeginSection()
	if sp.factor == 1 {
		k := 0
		for r := range p.users {
			for n := p.recCount(r) - 2; n > 0; n-- {
				off := uint64(sp.mids[k] - p.users[r].firstTS)
				if sh.midBytes() == 4 {
					w.U32(uint32(off))
				} else {
					w.U64(off)
				}
				k++
			}
		}
	}
	w.EndSection(sec)
}

// decodeSnapFile parses and fully validates one snapshot file against
// this shape: magic, version, header and section CRCs, shape hash,
// width, the file group, every count against the bytes that back it
// (before anything is allocated), part order and homes, and per partial
// every invariant the fold relies on — user ids strictly ascending,
// record and cell counts, times inside the part's span, areas and flow
// cells inside their slot's region set, mark bits inside it too, cells
// strictly ascending per row, flow cells inside the placement slots and
// strictly ascending, interior
// times ordered inside their row. Any mismatch returns
// errSnapshotCorrupt — callers degrade that file to a cold backfill.
func (sh *Shape) decodeSnapFile(blob []byte) (*snapFile, error) {
	fail := func(format string, args ...any) (*snapFile, error) {
		return nil, fmt.Errorf("%w: %s", errSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	r := wire.NewReader(blob)
	magic, version := r.U32(), r.U16()
	r.Zero(2)
	hash, width := r.U64(), r.I64()
	f := &snapFile{group: r.I64()}
	claim := r.U32()
	r.CRC(0)
	n := r.Count(uint64(claim), snapPartHeader+8*snapSections)
	switch {
	case magic != snapMagic:
		return fail("bad magic %08x", magic)
	case r.Err() != nil:
		return fail("header: %v", r.Err())
	case version != snapVersion:
		return fail("unsupported version %d", version)
	case hash != sh.hash:
		return fail("shape hash %016x does not match ring %016x", hash, sh.hash)
	case width != sh.width:
		return fail("bucket width %d does not match ring %d", width, sh.width)
	case n == 0:
		return fail("no parts")
	}
	f.parts = make([]snapPart, 0, n)
	for k := 0; k < n; k++ {
		sp, err := sh.decodeSnapPart(&r)
		if err != nil {
			return nil, err
		}
		// The part's index is range-checked, so its first bucket is exact.
		if at := sp.idx * sp.factor; floorDiv(at, sh.fileSpan()) != f.group || sp.factor > 1 && at%sh.fileSpan() != 0 {
			return fail("part %d (factor %d, index %d) is not homed in group %d", k, sp.factor, sp.idx, f.group)
		}
		if k > 0 {
			if prev := &f.parts[k-1]; sp.factor < prev.factor || sp.factor == prev.factor && sp.idx <= prev.idx {
				return fail("part %d out of order", k)
			}
		}
		f.parts = append(f.parts, sp)
	}
	if err := r.End(); err != nil {
		return fail("%v", err)
	}
	return f, nil
}

// decodeSnapPart decodes the partial at r's position and leaves r just
// past it.
func (sh *Shape) decodeSnapPart(r *wire.Reader) (snapPart, error) {
	fail := func(format string, args ...any) (snapPart, error) {
		return snapPart{}, fmt.Errorf("%w: %s", errSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	at := r.Off()
	sp := snapPart{factor: r.I64(), idx: r.I64()}
	bbox := geo.BBox{MinLat: r.F64(), MinLon: r.F64(), MaxLat: r.F64(), MaxLon: r.F64()}
	nUsers, nFlows := r.U32(), r.U32()
	r.CRC(at)
	if err := r.Err(); err != nil {
		return fail("part header at %d: %v", at, err)
	}
	if sp.factor != 1 && !slices.Contains(sh.rollups, sp.factor) {
		return fail("factor %d is not a tier of this shape", sp.factor)
	}
	// The part's span in buckets must sit inside the int64 millisecond range.
	limit := math.MaxInt64/sh.width/sp.factor - 1
	if sp.idx > limit || sp.idx < -limit {
		return fail("index %d out of range", sp.idx)
	}
	spanMs := sp.factor * sh.width
	base := sp.idx * spanMs
	var sec [snapSections]wire.Reader
	for id := range sec {
		if sec[id] = wire.NewReader(r.Section()); r.Err() != nil {
			return fail("section %d: %v", id+1, r.Err())
		}
	}
	users, areas, marks, cells, sums, flows, mids := &sec[0], &sec[1], &sec[2], &sec[3], &sec[4], &sec[5], &sec[6]
	slots, tw, mb := sh.slots, sh.totalWords, sh.midBytes()
	// Every row takes at least twelve bytes of users, a byte per slot of
	// areas, four of cells and 24 of sums, and a flow cell eleven bytes:
	// bound the counts by the bytes before allocating for them.
	nu := users.Count(uint64(nUsers), 12)
	areas.Count(uint64(nu), slots)
	cells.Count(uint64(nu), 4)
	sums.Count(uint64(nu), 24)
	nf := flows.Count(uint64(nFlows), 11)
	for id := range sec {
		if err := sec[id].Err(); err != nil {
			return fail("section %d: %v", id+1, err)
		}
	}
	if nu == 0 {
		return fail("no user rows")
	}
	if sp.factor > 1 && mids.Len() > 0 {
		return fail("a merge carries interior times")
	}
	p := &partial{
		seen:      true,
		bbox:      bbox,
		users:     make([]userPart, nu),
		firstArea: make([]int16, nu*slots),
		lastArea:  make([]int16, nu*slots),
		marks:     make([]uint64, nu*tw),
		cells:     make([]uint64, cells.Len()/4),
		sums:      make([]mobility.VecSum, nu),
	}
	if b := p.bbox; !(b.MinLat <= b.MaxLat && b.MinLon <= b.MaxLon) {
		return fail("bounding box %+v", b)
	}
	recs, ncells := uint64(0), uint64(0)
	for row := range p.users {
		u := &p.users[row]
		if u.id = users.I64(); row > 0 && u.id <= p.users[row-1].id && users.Err() == nil {
			return fail("user row %d breaks the ascending id order", row)
		}
		first, spread := users.Uvarint(), users.Uvarint()
		n, c := users.Uvarint()+1, users.Uvarint()+1
		if users.Err() != nil || first >= uint64(spanMs) || spread >= uint64(spanMs)-first || n == 0 || c == 0 || c > n || n == 1 && spread != 0 {
			return fail("user row %d malformed", row)
		}
		if n > math.MaxUint32-recs || c > uint64(len(p.cells))-ncells {
			return fail("user row %d overflows its columns", row)
		}
		u.firstTS = base + int64(first)
		u.lastTS = u.firstTS + int64(spread)
		u.rec0, u.c0 = uint32(recs), uint32(ncells)
		recs, ncells = recs+n, ncells+c
		if row == 0 || u.firstTS < p.firstTS {
			p.firstTS = u.firstTS
		}
		if row == 0 || u.lastTS > p.lastTS {
			p.lastTS = u.lastTS
		}
	}
	if users.End() != nil || ncells != uint64(len(p.cells)) {
		return fail("users section does not match its cells")
	}
	p.tweets = int64(recs)
	badArea := false
	area := func(s int) int16 {
		v := areas.Uvarint()
		badArea = badArea || v > uint64(len(sh.regions[s].Areas))
		return int16(v) - 1
	}
	for row := range p.users {
		first, last := p.firstArea[row*slots:(row+1)*slots], p.lastArea[row*slots:(row+1)*slots]
		for s := range first {
			first[s] = area(s)
		}
		if p.recCount(row) >= 2 {
			for s := range last {
				last[s] = area(s)
			}
		} else {
			copy(last, first)
		}
	}
	if badArea || areas.End() != nil {
		return fail("areas section malformed")
	}
	for row := range p.users {
		m := p.marks[row*tw : (row+1)*tw]
		if p.recCount(row) < 3 {
			for s := 0; s < slots; s++ {
				for _, ar := range [2]int16{p.firstArea[row*slots+s], p.lastArea[row*slots+s]} {
					if ar >= 0 {
						m[sh.wordOff[s]+int(ar)>>6] |= 1 << (uint(ar) & 63)
					}
				}
			}
			continue
		}
		for w := range m {
			m[w] = marks.U64()
		}
		for s := 0; s < slots; s++ {
			if n := len(sh.regions[s].Areas); n%64 != 0 && m[sh.wordOff[s]+sh.wordsPerSlot[s]-1]>>(n%64) != 0 {
				return fail("row %d marks an area beyond slot %d", row, s)
			}
		}
	}
	if err := marks.End(); err != nil {
		return fail("marks section: %v", err)
	}
	for row := range p.users {
		own := p.userCells(row)
		for i := range own {
			own[i] = uint64(cells.U32())
			if i > 0 && own[i] <= own[i-1] {
				return fail("row %d cells out of order", row)
			}
		}
	}
	if err := cells.End(); err != nil {
		return fail("cells section: %v", err)
	}
	for row := range p.users {
		var w [6]uint64
		w[1], w[3], w[5] = sums.U64(), sums.U64(), sums.U64()
		if p.recCount(row) >= 8 {
			w[0], w[2], w[4] = sums.U64(), sums.U64(), sums.U64()
		} else {
			w[0], w[2], w[4] = uint64(int64(w[1])>>63), uint64(int64(w[3])>>63), uint64(int64(w[5])>>63)
		}
		p.sums[row] = mobility.VecSumFromWords(w)
	}
	if err := sums.End(); err != nil {
		return fail("sums section: %v", err)
	}
	if nf > 0 {
		p.flows = make([]flowCell, nf)
	}
	for i := range p.flows {
		c := flowCell{pslot: flows.U8(), slot: int16(flows.U16()), from: int16(flows.U16()), to: int16(flows.U16()), n: float64(flows.U32())}
		if int(c.pslot) >= ring.Slots || c.slot < 0 || int(c.slot) >= len(sh.scales) || c.n == 0 {
			return fail("flow cell %d out of range", i)
		}
		if na := int16(len(sh.regions[c.slot].Areas)); c.from < 0 || c.from >= na || c.to < 0 || c.to >= na {
			return fail("flow cell %d out of range", i)
		}
		if i > 0 && cmp.Or(cmp.Compare(c.pslot, p.flows[i-1].pslot), cmp.Compare(c.slot, p.flows[i-1].slot),
			cmp.Compare(c.from, p.flows[i-1].from), cmp.Compare(c.to, p.flows[i-1].to)) <= 0 {
			return fail("flow cell %d out of order", i)
		}
		p.flows[i] = c
	}
	if err := flows.End(); err != nil {
		return fail("flows section: %v", err)
	}
	if sp.factor == 1 {
		want := 0
		for row := range p.users {
			want += max(0, p.recCount(row)-2)
		}
		if mids.Len() != want*mb {
			return fail("%d bytes of interior times, want %d", mids.Len(), want*mb)
		}
		if want > 0 {
			sp.mids = make([]int64, 0, want)
		}
		for row := range p.users {
			u := &p.users[row]
			prev := uint64(0)
			for n := p.recCount(row) - 2; n > 0; n-- {
				var o uint64
				if mb == 4 {
					o = uint64(mids.U32())
				} else {
					o = mids.U64()
				}
				if o < prev || o > uint64(u.lastTS-u.firstTS) {
					return fail("row %d interior times out of order", row)
				}
				sp.mids = append(sp.mids, u.firstTS+int64(o))
				prev = o
			}
		}
	}
	if err := mids.End(); err != nil {
		return fail("mids section: %v", err)
	}
	sp.part = p
	return sp, nil
}

// snapFileMeta is one file entry in the snapshot manifest. Bytes is the
// file's size, so the directory's footprint is known without a stat.
type snapFileMeta struct {
	Group   int64  `json:"group"`
	Buckets int    `json:"buckets"`
	Records int64  `json:"records"`
	File    string `json:"file"`
	Bytes   int64  `json:"bytes"`
}

// snapManifest is the atomically renamed catalogue tying snapshot files
// to the store segments they reflect. Covered lists the segment files
// whose records are fully contained in the files' partials — the
// segments a restored bucket reads its records back from; everything
// else in the store catalogue at boot is the tail to replay. Gen numbers
// the commits, so a commit never writes over a file the manifest on disk
// still names.
type snapManifest struct {
	Version   int            `json:"version"`
	ShapeHash string         `json:"shape_hash"`
	Width     int64          `json:"width_ms"`
	Gen       uint64         `json:"gen"`
	Covered   []string       `json:"covered_segments,omitempty"`
	Files     []snapFileMeta `json:"files"`
	CRC       string         `json:"crc"`
}

func (m *snapManifest) computeCRC() string {
	cp := *m
	cp.CRC = ""
	raw, err := json.Marshal(&cp)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
}

// SnapshotStats is a snapshot directory's health block.
type SnapshotStats struct {
	// Buckets, Files and Bytes describe the last committed manifest: the
	// buckets its files hold, the files, and their bytes on disk with the
	// manifest's own; Written counts files written by the last commit;
	// LastUnixMs is the wall-clock commit time (0 before the first).
	Buckets    int   `json:"buckets"`
	Files      int   `json:"files"`
	Bytes      int64 `json:"bytes"`
	Written    int   `json:"written"`
	LastUnixMs int64 `json:"last_unix_ms"`
}

// Merge accumulates another snapshot set's stats into s (a partitioned
// node sums its shards'): counts add, the commit time is the latest.
func (s *SnapshotStats) Merge(o SnapshotStats) {
	s.Buckets += o.Buckets
	s.Files += o.Files
	s.Bytes += o.Bytes
	s.Written += o.Written
	s.LastUnixMs = max(s.LastUnixMs, o.LastUnixMs)
}

// SnapshotStore owns one snapshot directory: file-group files plus the
// manifest, every write temp-file-fsync-renamed so a crash at any byte
// leaves either the old snapshot or the new one, never a torn hybrid.
type SnapshotStore struct {
	dir string

	mu      sync.Mutex
	man     *snapManifest
	bytes   int64
	written int
	last    int64
}

// OpenSnapshotStore opens (or initialises) the snapshot directory and
// loads its manifest if one is intact. A missing or corrupt manifest is
// not an error here — recovery treats it as "no snapshot".
func OpenSnapshotStore(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: open snapshot dir %s: %w", dir, err)
	}
	s := &SnapshotStore{dir: dir}
	if man, err := s.loadManifest(); err == nil {
		s.man = man
		// The manifest rename is the commit point, so its mtime is the
		// last commit time — surviving restarts for health reporting.
		if info, err := os.Stat(filepath.Join(dir, snapManifestName)); err == nil {
			s.last = info.ModTime().UnixMilli()
			s.bytes = info.Size() + man.fileBytes()
		}
	}
	return s, nil
}

// fileBytes sums the sizes the manifest records for its files.
func (m *snapManifest) fileBytes() int64 {
	var total int64
	for _, fm := range m.Files {
		total += fm.Bytes
	}
	return total
}

// Dir returns the snapshot directory.
func (s *SnapshotStore) Dir() string { return s.dir }

// loadManifest reads and validates the manifest. It returns an error
// wrapping errSnapshotCorrupt for a missing, unparsable or
// checksum-failing file.
func (s *SnapshotStore) loadManifest() (*snapManifest, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapManifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: read manifest: %w", errSnapshotCorrupt, err)
	}
	return parseManifest(raw)
}

// parseManifest decodes and validates a manifest file's bytes: JSON,
// manifestVersion, a CRC over the rest of its fields, and one file per
// group. An older
// version is rejected like a corrupt file: a snapshot is a cache, so its
// directory degrades to a full rescan.
func parseManifest(raw []byte) (*snapManifest, error) {
	man := &snapManifest{}
	if err := json.Unmarshal(raw, man); err != nil {
		return nil, fmt.Errorf("%w: parse manifest: %w", errSnapshotCorrupt, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", errSnapshotCorrupt, man.Version)
	}
	if man.CRC == "" || man.CRC != man.computeCRC() {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", errSnapshotCorrupt)
	}
	// A commit writes each group once, ascending; a group named twice
	// would restore its buckets twice.
	for i := 1; i < len(man.Files); i++ {
		if man.Files[i].Group <= man.Files[i-1].Group {
			return nil, fmt.Errorf("%w: manifest names group %d out of order", errSnapshotCorrupt, man.Files[i].Group)
		}
	}
	return man, nil
}

// statsLocked reports the committed state. Caller holds s.mu.
func (s *SnapshotStore) statsLocked() SnapshotStats {
	st := SnapshotStats{Bytes: s.bytes, Written: s.written, LastUnixMs: s.last}
	if s.man != nil {
		st.Files = len(s.man.Files)
		for _, fm := range s.man.Files {
			st.Buckets += fm.Buckets
		}
	}
	return st
}

// Stats reports the committed snapshot state.
func (s *SnapshotStore) Stats() SnapshotStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// Commit durably persists a ring capture: every changed file group is
// encoded (on every processor) into a fresh file, unchanged groups keep
// their files from the previous manifest by reference, and the new
// manifest — naming covered as the segment files it reflects — lands
// with one atomic rename. Files no longer referenced are deleted
// afterwards. On success the caller marks the capture snapshotted.
func (s *SnapshotStore) Commit(c *RingCapture, covered []string) (SnapshotStats, error) {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := map[int64]snapFileMeta{}
	var gen uint64 = 1
	if s.man != nil {
		for _, fm := range s.man.Files {
			prev[fm.Group] = fm
		}
		gen = s.man.Gen + 1
	}
	var dirty []int
	for i := range c.files {
		if c.files[i].dirty != nil {
			dirty = append(dirty, i)
		}
	}
	if len(dirty) == 0 && s.man != nil && len(s.man.Files) == len(c.files) && slices.Equal(s.man.Covered, covered) {
		s.written = 0
		return s.statsLocked(), nil
	}
	metas := make([]snapFileMeta, len(c.files))
	errs := make([]error, len(c.files))
	runTasks(len(dirty), func(k int) {
		cf := &c.files[dirty[k]]
		if len(cf.dirty.parts) == 0 {
			return // a group whose only merge went stale: no file
		}
		name := fmt.Sprintf("g%d-%d%s", cf.group, gen, snapSuffix)
		blob := c.sh.encodeSnapFile(cf.dirty)
		if err := tweetdb.AtomicWriteFile(filepath.Join(s.dir, name), blob); err != nil {
			errs[dirty[k]] = fmt.Errorf("live: write snapshot group %d: %w", cf.group, err)
			return
		}
		n, records := cf.dirty.buckets()
		metas[dirty[k]] = snapFileMeta{Group: cf.group, Buckets: n, Records: records, File: name, Bytes: int64(len(blob))}
	})
	man := &snapManifest{
		Version:   manifestVersion,
		ShapeHash: fmt.Sprintf("%016x", c.sh.hash),
		Width:     c.sh.width,
		Gen:       gen,
		Covered:   covered,
	}
	written, fileBytes := 0, int64(0)
	for i, cf := range c.files {
		if errs[i] != nil {
			return SnapshotStats{}, errs[i]
		}
		if cf.dirty == nil {
			pm, ok := prev[cf.group]
			if !ok {
				return SnapshotStats{}, fmt.Errorf("live: snapshot commit: clean group %d has no prior file", cf.group)
			}
			metas[i] = pm
		} else if metas[i].File == "" {
			continue
		} else {
			written++
			fileBytes += metas[i].Bytes
		}
		man.Files = append(man.Files, metas[i])
	}
	man.CRC = man.computeCRC()
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return SnapshotStats{}, fmt.Errorf("live: marshal snapshot manifest: %w", err)
	}
	if err := tweetdb.AtomicWriteFile(filepath.Join(s.dir, snapManifestName), raw); err != nil {
		return SnapshotStats{}, fmt.Errorf("live: save snapshot manifest: %w", err)
	}
	referenced := map[string]bool{}
	for _, fm := range man.Files {
		referenced[fm.File] = true
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, snapSuffix) && !referenced[name] {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
		}
	}
	s.man = man
	s.bytes = int64(len(raw)) + man.fileBytes()
	s.written = written
	s.last = time.Now().UnixMilli()
	mSnapCommits.Inc()
	mSnapFiles.Add(int64(written))
	mSnapBytes.Add(fileBytes)
	mSnapCommitSecs.Observe(time.Since(t0).Seconds())
	return s.statsLocked(), nil
}
