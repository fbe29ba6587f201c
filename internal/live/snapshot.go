package live

import (
	"encoding/binary"
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

	"geomob/internal/obs"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Snapshot-commit metrics (DESIGN.md §12).
var (
	mSnapCommits    = obs.Def.Counter("geomob_snapshot_commits_total", "Snapshot manifest commits that wrote at least the manifest.")
	mSnapFiles      = obs.Def.Counter("geomob_snapshot_files_written_total", "Bucket blob files written by snapshot commits.")
	mSnapBytes      = obs.Def.Counter("geomob_snapshot_bytes_written_total", "Bucket blob bytes written by snapshot commits.")
	mSnapCommitSecs = obs.Def.Histogram("geomob_snapshot_commit_seconds", "Latency of one snapshot commit.", nil)
)

// Durable bucket snapshots (DESIGN.md §11): each bucket's pre-resolved
// columns — records plus the cached assignments, unit vectors and cell
// ids the ingest hot path computed — serialised to a versioned,
// per-section CRC'd, atomically renamed file beside the store. Floats
// travel as raw IEEE-754 bits, so a restored ring folds bit-identically
// to a cold Study.Execute rescan. A snapshot manifest records which
// store segments the bucket files collectively reflect; restart loads
// intact files, replays only the segment tail, and falls back to a
// windowed cold backfill per bucket on any missing, corrupt or
// version-mismatched file — never a panic, never a changed answer.

const (
	snapMagic        = uint32(0x4e534d47) // "GMSN"
	snapVersion      = uint16(1)
	manifestVersion  = 2
	snapSections     = 8
	snapHeader       = 40
	snapManifestName = "SNAPSHOT.json"
	snapSuffix       = ".gmsnap"
)

// errSnapshotCorrupt marks an unreadable or mismatched snapshot file.
var errSnapshotCorrupt = errors.New("live: snapshot corrupt")

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func putI64(b []byte, v int64)  { binary.LittleEndian.PutUint64(b, uint64(v)) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
func getI64(b []byte) int64     { return int64(binary.LittleEndian.Uint64(b)) }

// bucketRef identifies one live bucket at capture time.
type bucketRef struct {
	Idx   int64
	Rev   uint64
	Count int
}

// capturedBucket is one dirty bucket's columns, copied out of the ring
// in canonical order under the lock.
type capturedBucket struct {
	idx    int64
	rev    uint64
	tweets []tweet.Tweet
	assign []int16
	vecs   []float64
	cells  []uint64
}

// RingCapture is a consistent snapshot of ring state: every live
// bucket's identity plus full column copies of the dirty ones. Taken
// under the ingest lock, it lines up exactly with a store segment
// catalogue read at the same moment.
type RingCapture struct {
	shapeHash uint64
	width     int64
	slots     int
	live      []bucketRef
	dirty     []capturedBucket
}

// Capture copies the ring's dirty buckets (canonically sorted) and the
// identities of all live buckets. Callers that pair the capture with a
// store catalogue must hold the lock that orders store appends before
// ring routes (the Ingestor's, or a cluster shard's).
func (a *Aggregator) Capture() *RingCapture {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &RingCapture{shapeHash: a.hash, width: a.width, slots: a.slots}
	for _, idx := range a.idxs { // ascending, so live and dirty are too
		b := a.buckets[idx]
		if len(b.tweets) == 0 {
			continue
		}
		c.live = append(c.live, bucketRef{Idx: idx, Rev: b.rev, Count: len(b.tweets)})
		if b.rev != b.snapRev {
			ensureSortedLocked(b, a.slots)
			c.dirty = append(c.dirty, capturedBucket{
				idx: idx, rev: b.rev,
				tweets: slices.Clone(b.tweets),
				assign: slices.Clone(b.assign),
				vecs:   slices.Clone(b.vecs),
				cells:  slices.Clone(b.cells),
			})
		}
	}
	return c
}

// MarkSnapshotted records, after a successful commit, that the captured
// revisions are durable: a bucket untouched since capture goes clean; a
// bucket that advanced stays dirty for the next round.
func (a *Aggregator) MarkSnapshotted(c *RingCapture) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range c.dirty {
		if b := a.buckets[c.dirty[i].idx]; b != nil {
			b.snapRev = c.dirty[i].rev
		}
	}
}

// encodeBucketBlob serialises one captured bucket: a CRC'd fixed header
// (magic, version, shape hash, bucket index, width, count) followed by
// eight individually CRC'd sections — ids, users, timestamps, raw
// latitude/longitude bits, assignments, unit-vector bits, cell ids.
func encodeBucketBlob(shapeHash uint64, width int64, slots int, cb *capturedBucket) []byte {
	n := len(cb.tweets)
	total := snapHeader
	lens := [snapSections]int{8 * n, 8 * n, 8 * n, 8 * n, 8 * n, 2 * n * slots, 8 * 3 * n, 8 * len(cb.cells)}
	for _, l := range lens {
		total += 12 + l
	}
	out := make([]byte, total)
	putU32(out[0:], snapMagic)
	putU16(out[4:], snapVersion)
	putU16(out[6:], snapSections)
	putU64(out[8:], shapeHash)
	putI64(out[16:], cb.idx)
	putI64(out[24:], width)
	putU32(out[32:], uint32(n))
	putU32(out[36:], crc32.ChecksumIEEE(out[:36]))
	off := snapHeader
	writeSection := func(id uint32, fill func(p []byte)) {
		l := lens[id-1]
		putU32(out[off:], id)
		putU32(out[off+4:], uint32(l))
		p := out[off+12 : off+12+l]
		fill(p)
		putU32(out[off+8:], crc32.ChecksumIEEE(p))
		off += 12 + l
	}
	writeSection(1, func(p []byte) {
		for i := range cb.tweets {
			putI64(p[8*i:], cb.tweets[i].ID)
		}
	})
	writeSection(2, func(p []byte) {
		for i := range cb.tweets {
			putI64(p[8*i:], cb.tweets[i].UserID)
		}
	})
	writeSection(3, func(p []byte) {
		for i := range cb.tweets {
			putI64(p[8*i:], cb.tweets[i].TS)
		}
	})
	writeSection(4, func(p []byte) {
		for i := range cb.tweets {
			putU64(p[8*i:], math.Float64bits(cb.tweets[i].Lat))
		}
	})
	writeSection(5, func(p []byte) {
		for i := range cb.tweets {
			putU64(p[8*i:], math.Float64bits(cb.tweets[i].Lon))
		}
	})
	writeSection(6, func(p []byte) {
		for i, v := range cb.assign {
			putU16(p[2*i:], uint16(v))
		}
	})
	writeSection(7, func(p []byte) {
		for i, v := range cb.vecs {
			putU64(p[8*i:], math.Float64bits(v))
		}
	})
	writeSection(8, func(p []byte) {
		for i, v := range cb.cells {
			putU64(p[8*i:], v)
		}
	})
	return out
}

// bucketSnapshot is one decoded, validated snapshot bucket: records plus
// their pre-resolved columns, in canonical (user, time, id) order.
type bucketSnapshot struct {
	Idx    int64
	tweets []tweet.Tweet
	assign []int16
	vecs   []float64
	cells  []uint64
}

// Count returns the number of records in the snapshot bucket.
func (bs *bucketSnapshot) Count() int { return len(bs.tweets) }

// decodeBucketSnapshot parses and fully validates a bucket blob against
// this shape: magic, version, header CRC, shape hash, width, section
// ids, lengths and CRCs, assignment bounds, that every record's
// timestamp maps to the blob's bucket, and that the records are in
// canonical (user, time, id) order. Any mismatch returns
// errSnapshotCorrupt — callers degrade that bucket to a cold backfill.
func (sh *Shape) decodeBucketSnapshot(blob []byte) (*bucketSnapshot, error) {
	fail := func(format string, args ...any) (*bucketSnapshot, error) {
		return nil, fmt.Errorf("%w: %s", errSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	if len(blob) < snapHeader {
		return fail("short header (%d bytes)", len(blob))
	}
	if getU32(blob) != snapMagic {
		return fail("bad magic %08x", getU32(blob))
	}
	if crc32.ChecksumIEEE(blob[:36]) != getU32(blob[36:]) {
		return fail("header checksum mismatch")
	}
	if v := getU16(blob[4:]); v != snapVersion {
		return fail("unsupported version %d", v)
	}
	if s := getU16(blob[6:]); s != snapSections {
		return fail("unexpected section count %d", s)
	}
	if h := getU64(blob[8:]); h != sh.hash {
		return fail("shape hash %016x does not match ring %016x", h, sh.hash)
	}
	if w := getI64(blob[24:]); w != sh.width {
		return fail("bucket width %d does not match ring %d", w, sh.width)
	}
	idx := getI64(blob[16:])
	n := int(getU32(blob[32:]))
	bs := &bucketSnapshot{Idx: idx}
	off := snapHeader
	var sections [snapSections][]byte
	for id := 1; id <= snapSections; id++ {
		if off+12 > len(blob) {
			return fail("truncated at section %d", id)
		}
		gotID, l := getU32(blob[off:]), int(getU32(blob[off+4:]))
		crc := getU32(blob[off+8:])
		if gotID != uint32(id) {
			return fail("section id %d, want %d", gotID, id)
		}
		if off+12+l > len(blob) {
			return fail("section %d payload truncated", id)
		}
		p := blob[off+12 : off+12+l]
		if crc32.ChecksumIEEE(p) != crc {
			return fail("section %d checksum mismatch", id)
		}
		sections[id-1] = p
		off += 12 + l
	}
	if off != len(blob) {
		return fail("%d trailing bytes", len(blob)-off)
	}
	for id, want := range [snapSections]int{8 * n, 8 * n, 8 * n, 8 * n, 8 * n, 2 * n * sh.slots, 8 * 3 * n, len(sections[7])} {
		if len(sections[id]) != want {
			return fail("section %d length %d, want %d", id+1, len(sections[id]), want)
		}
	}
	if len(sections[7])%8 != 0 {
		return fail("cells section length %d not 8-aligned", len(sections[7]))
	}
	bs.tweets = make([]tweet.Tweet, n)
	for i := 0; i < n; i++ {
		bs.tweets[i] = tweet.Tweet{
			ID:     getI64(sections[0][8*i:]),
			UserID: getI64(sections[1][8*i:]),
			TS:     getI64(sections[2][8*i:]),
			Lat:    math.Float64frombits(getU64(sections[3][8*i:])),
			Lon:    math.Float64frombits(getU64(sections[4][8*i:])),
		}
		if got := floorDiv(bs.tweets[i].TS, sh.width); got != idx {
			return fail("record %d timestamp maps to bucket %d, not %d", i, got, idx)
		}
		// A restored bucket is folded as already sorted, so the order is
		// part of the blob's validity, not an assumption about its writer.
		if i > 0 && canonicalLess(&bs.tweets[i], &bs.tweets[i-1]) {
			return fail("record %d breaks the (user, time, id) order", i)
		}
	}
	bs.assign = make([]int16, n*sh.slots)
	for i := range bs.assign {
		v := int16(getU16(sections[5][2*i:]))
		if v < -1 || int(v) >= len(sh.regions[i%sh.slots].Areas) {
			return fail("assignment %d out of range at row %d", v, i/sh.slots)
		}
		bs.assign[i] = v
	}
	bs.vecs = make([]float64, 3*n)
	for i := range bs.vecs {
		bs.vecs[i] = math.Float64frombits(getU64(sections[6][8*i:]))
	}
	bs.cells = make([]uint64, len(sections[7])/8)
	if len(bs.cells) != n {
		return fail("cells count %d, want %d", len(bs.cells), n)
	}
	for i := range bs.cells {
		bs.cells[i] = getU64(sections[7][8*i:])
	}
	return bs, nil
}

// restoreBucket installs a decoded snapshot bucket into the ring and
// consumes it: an empty slot takes the decoded columns as its own
// instead of copying them and is marked as already durable. A bucket
// already holding records (a manifest naming one bucket twice) takes
// the columns by merge and stays dirty.
func (a *Aggregator) restoreBucket(bs *bucketSnapshot) {
	n := len(bs.tweets)
	if n == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.bucketLocked(bs.Idx)
	fresh := len(b.tweets) == 0
	if fresh {
		b.tweets, b.assign, b.vecs, b.cells = bs.tweets, bs.assign, bs.vecs, bs.cells
	} else {
		b.tweets = append(b.tweets, bs.tweets...)
		b.assign = append(b.assign, bs.assign...)
		b.vecs = append(b.vecs, bs.vecs...)
		b.cells = append(b.cells, bs.cells...)
	}
	bs.tweets, bs.assign, bs.vecs, bs.cells = nil, nil, nil, nil
	b.sorted = fresh // the decoder checked the blob's canonical order
	a.touchLocked(bs.Idx, b)
	if fresh {
		b.snapRev = b.rev
	}
	a.acceptLocked(int64(n))
}

// snapBucketMeta is one bucket file entry in the snapshot manifest.
type snapBucketMeta struct {
	Idx   int64  `json:"idx"`
	Rev   uint64 `json:"rev"`
	Count int    `json:"count"`
	File  string `json:"file"`
}

// snapManifest is the atomically renamed catalogue tying bucket files to
// the store segments they reflect. Covered lists the segment files whose
// records are fully contained in the bucket files; everything else in
// the store catalogue at boot is the tail to replay.
type snapManifest struct {
	Version   int              `json:"version"`
	ShapeHash string           `json:"shape_hash"`
	Width     int64            `json:"width_ms"`
	Covered   []string         `json:"covered_segments,omitempty"`
	Buckets   []snapBucketMeta `json:"buckets"`
	CRC       string           `json:"crc"`
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
	// Buckets and Bytes describe the last committed manifest's files on
	// disk; Written counts bucket files written by the last commit;
	// LastUnixMs is the wall-clock commit time (0 before the first).
	Buckets    int   `json:"buckets"`
	Bytes      int64 `json:"bytes"`
	Written    int   `json:"written"`
	LastUnixMs int64 `json:"last_unix_ms"`
}

// Merge accumulates another snapshot set's stats into s (a shard sums
// its slot directories, a partitioned node its shards): counts add, the
// commit time is the latest.
func (s *SnapshotStats) Merge(o SnapshotStats) {
	s.Buckets += o.Buckets
	s.Bytes += o.Bytes
	s.Written += o.Written
	s.LastUnixMs = max(s.LastUnixMs, o.LastUnixMs)
}

// SnapshotStore owns one snapshot directory: bucket blob files plus the
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
		s.bytes = s.manifestBytes(man)
		// The manifest rename is the commit point, so its mtime is the
		// last commit time — surviving restarts for health reporting.
		if info, err := os.Stat(filepath.Join(dir, snapManifestName)); err == nil {
			s.last = info.ModTime().UnixMilli()
		}
	}
	return s, nil
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
// manifestVersion, and a CRC over the rest of its fields. An older
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
	return man, nil
}

// manifestBytes sums the on-disk size of the manifest and its files.
func (s *SnapshotStore) manifestBytes(man *snapManifest) int64 {
	var total int64
	if info, err := os.Stat(filepath.Join(s.dir, snapManifestName)); err == nil {
		total += info.Size()
	}
	for _, bm := range man.Buckets {
		if info, err := os.Stat(filepath.Join(s.dir, bm.File)); err == nil {
			total += info.Size()
		}
	}
	return total
}

// Stats reports the committed snapshot state.
func (s *SnapshotStore) Stats() SnapshotStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SnapshotStats{Bytes: s.bytes, Written: s.written, LastUnixMs: s.last}
	if s.man != nil {
		st.Buckets = len(s.man.Buckets)
	}
	return st
}

// Commit durably persists a ring capture: every dirty bucket becomes a
// fresh blob file, clean buckets keep their files from the previous
// manifest, and the new manifest — naming covered as the segment files
// it reflects — lands with one atomic rename. Files no longer referenced
// are deleted afterwards. On success the caller marks the capture's
// revisions snapshotted.
func (s *SnapshotStore) Commit(c *RingCapture, covered []string) (SnapshotStats, error) {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(c.dirty) == 0 && s.man != nil &&
		len(s.man.Buckets) == len(c.live) && slices.Equal(s.man.Covered, covered) {
		st := SnapshotStats{Buckets: len(s.man.Buckets), Bytes: s.bytes, Written: 0, LastUnixMs: s.last}
		return st, nil
	}
	prev := map[int64]snapBucketMeta{}
	if s.man != nil {
		for _, bm := range s.man.Buckets {
			prev[bm.Idx] = bm
		}
	}
	dirty := map[int64]*capturedBucket{}
	for i := range c.dirty {
		dirty[c.dirty[i].idx] = &c.dirty[i]
	}
	man := &snapManifest{
		Version:   manifestVersion,
		ShapeHash: fmt.Sprintf("%016x", c.shapeHash),
		Width:     c.width,
		Covered:   covered,
	}
	written := 0
	var blobBytes int64
	for _, ref := range c.live {
		if cb := dirty[ref.Idx]; cb != nil {
			name := fmt.Sprintf("bk-%d-%016x%s", cb.idx, cb.rev, snapSuffix)
			blob := encodeBucketBlob(c.shapeHash, c.width, c.slots, cb)
			if err := tweetdb.AtomicWriteFile(filepath.Join(s.dir, name), blob); err != nil {
				return SnapshotStats{}, fmt.Errorf("live: write snapshot bucket %d: %w", cb.idx, err)
			}
			blobBytes += int64(len(blob))
			man.Buckets = append(man.Buckets, snapBucketMeta{Idx: cb.idx, Rev: cb.rev, Count: len(cb.tweets), File: name})
			written++
			continue
		}
		pm, ok := prev[ref.Idx]
		if !ok {
			return SnapshotStats{}, fmt.Errorf("live: snapshot commit: clean bucket %d has no prior file", ref.Idx)
		}
		man.Buckets = append(man.Buckets, pm)
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
	for _, bm := range man.Buckets {
		referenced[bm.File] = true
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
	s.bytes = s.manifestBytes(man)
	s.written = written
	s.last = time.Now().UnixMilli()
	mSnapCommits.Inc()
	mSnapFiles.Add(int64(written))
	mSnapBytes.Add(blobBytes)
	mSnapCommitSecs.Observe(time.Since(t0).Seconds())
	return SnapshotStats{Buckets: len(man.Buckets), Bytes: s.bytes, Written: written, LastUnixMs: s.last}, nil
}
