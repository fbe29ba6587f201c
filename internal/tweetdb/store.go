package tweetdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geomob/internal/geo"
	"geomob/internal/obs"
	"geomob/internal/tweet"
)

// Store metrics (DESIGN.md §12): cumulative over every Store in the
// process (cluster shards open one per node).
var (
	mScans       = obs.Def.Counter("geomob_store_scans_total", "Store scans started (cache misses that went back to segments).")
	mSegLoads    = obs.Def.Counter("geomob_store_segment_loads_total", "Segment payloads decoded — the unit of real scan work.")
	mAppends     = obs.Def.Counter("geomob_store_appends_total", "Durable batch appends (segment writes + manifest rename).")
	mAppendSecs  = obs.Def.Histogram("geomob_store_append_seconds", "Latency of one durable batch append.", nil)
	mCompactions = obs.Def.Counter("geomob_store_compactions_total", "Store compactions completed.")
)

const manifestName = "MANIFEST.json"

// DefaultSegmentRecords caps how many records a single segment holds. A
// segment is the unit of decode, so this bounds peak memory per iterator.
const DefaultSegmentRecords = 1 << 18

// manifest is the on-disk catalogue of segments.
type manifest struct {
	Version  int           `json:"version"`
	NextSeq  int           `json:"next_seq"`
	Segments []SegmentMeta `json:"segments"`
	// Meta holds small application key/values that must commit
	// atomically with an append — the cluster stores per-sender
	// delivery high-water marks here, so a batch and the mark that
	// deduplicates its redelivery land in one manifest rename.
	Meta map[string]string `json:"meta,omitempty"`
}

// Store is an append-only tweet database rooted in one directory. A Store
// is safe for concurrent use: appends serialise on an internal mutex,
// scans read immutable files.
type Store struct {
	dir string

	// scans counts Scan calls over the store's lifetime — a cheap
	// observability hook that lets callers (and tests) assert whether a
	// request was answered from a cache or went back to the segments.
	scans atomic.Int64
	// segLoads counts segment payload decodes — the unit of real scan
	// work. ScanCount says a reader went back to the store; SegmentLoads
	// says how much of it was actually read, which is what distinguishes
	// an O(tail) recovery replay from a full-store rescan.
	segLoads atomic.Int64
	// activeScans counts iterators that have not finished (or been
	// closed) yet. Compact defers deleting retired segment files while
	// any are live, because their catalogue snapshots may still
	// reference the old files.
	activeScans atomic.Int64

	mu         sync.Mutex
	man        manifest
	segRecords int // max records per segment; DefaultSegmentRecords unless overridden
	// garbage lists segment files retired by Compact that could not be
	// unlinked yet because scans were in flight; dropped as soon as the
	// store goes scan-idle.
	garbage []string
}

// Open opens (or initialises) the store in dir, creating the directory as
// needed and loading the manifest.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tweetdb: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, man: manifest{Version: 1}, segRecords: DefaultSegmentRecords}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store.
	case err != nil:
		return nil, fmt.Errorf("tweetdb: read manifest: %w", err)
	default:
		if err := json.Unmarshal(raw, &s.man); err != nil {
			return nil, fmt.Errorf("tweetdb: parse manifest: %w", err)
		}
		for _, seg := range s.man.Segments {
			if _, err := os.Stat(filepath.Join(dir, seg.File)); err != nil {
				return nil, fmt.Errorf("tweetdb: manifest references missing segment %s: %w", seg.File, err)
			}
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetSegmentRecords overrides the per-segment record cap for subsequent
// appends and compactions. Smaller segments raise catalogue overhead but
// increase scan and shard parallelism; tests also use this to exercise
// multi-segment layouts on small corpora.
func (s *Store) SetSegmentRecords(n int) error {
	if n < 1 {
		return fmt.Errorf("tweetdb: segment record cap must be positive, got %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segRecords = n
	return nil
}

// Count returns the total number of records across all segments.
func (s *Store) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.man.Segments {
		n += int64(seg.Count)
	}
	return n
}

// Generation identifies the current segment catalogue. It changes
// whenever the segment set changes (Append, Compact) and is stable across
// reopens of the same directory, which makes it the invalidation key for
// snapshot caches layered over the store: results derived from a scan
// stay valid exactly as long as Generation holds still.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	for _, seg := range s.man.Segments {
		fmt.Fprintf(h, "%s:%d;", seg.File, seg.Count)
	}
	return h.Sum64()
}

// ScanCount reports how many scans were started on this store.
func (s *Store) ScanCount() int64 { return s.scans.Load() }

// SegmentLoads reports how many segment payloads were decoded over the
// store's lifetime (scans and compactions alike).
func (s *Store) SegmentLoads() int64 { return s.segLoads.Load() }

// Segments returns a snapshot of the segment catalogue.
func (s *Store) Segments() []SegmentMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentMeta(nil), s.man.Segments...)
}

// Append writes the tweets as one or more new segments (respecting
// DefaultSegmentRecords) and commits them to the manifest. Records are
// sorted by (user, time) within each segment so the binary delta coding
// compresses well; global order across segments is only established by
// Compact. The caller's slice is never mutated.
func (s *Store) Append(tweets []tweet.Tweet) error {
	if len(tweets) == 0 {
		return nil
	}
	return s.AppendBatch(tweet.BatchOf(tweets))
}

// AppendBatch is Append over columns: the batch is validated once and
// written in canonical (user, time, id) order — as it stands when already
// ordered, otherwise from a sorted copy in the store's own scratch — as
// one or more columnar segments without ever materialising tweet.Tweet
// values. The batch is only read, and its columns are not retained.
func (s *Store) AppendBatch(b *tweet.Batch) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("tweetdb: append: %w", err)
	}
	return s.AppendBatchMeta(b, nil)
}

// sortScratch pools the sorted copies of unordered appends, segBufs the
// segment file images; both are overwritten before use.
var sortScratch = sync.Pool{New: func() any { return new(tweet.Batch) }}
var segBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendBatchMeta is AppendBatch over a batch its caller has already
// validated, merging meta into the manifest's key/value table in the
// same manifest save. Because AppendBatch publishes all of an append's
// segments with one atomic manifest rename, the batch and its meta
// updates commit together or not at all — the property cluster shards
// rely on to make redelivery deduplication exact across kill -9. A
// failed call leaves the store as it found it, so retrying the same
// batch commits it exactly once.
func (s *Store) AppendBatchMeta(b *tweet.Batch, meta map[string]string) (err error) {
	if b.Len() == 0 && len(meta) == 0 {
		return nil
	}
	if !b.IsSorted() {
		sorted := sortScratch.Get().(*tweet.Batch)
		defer sortScratch.Put(sorted)
		b.SortInto(sorted)
		b = sorted
	}
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.man
	defer func() {
		if err != nil {
			for _, seg := range s.man.Segments[len(prev.Segments):] {
				_ = removeFile(s.dir, seg.File) // in no saved manifest; a leftover is overwritten with its name
			}
			s.man = prev
		}
	}()
	for off := 0; off < b.Len(); off += s.segRecords {
		end := off + s.segRecords
		if end > b.Len() {
			end = b.Len()
		}
		if err := s.writeSegmentLocked(b, off, end); err != nil {
			return err
		}
	}
	if len(meta) > 0 {
		// A fresh table, so prev still holds the one to roll back to.
		s.man.Meta = maps.Clone(s.man.Meta)
		if s.man.Meta == nil {
			s.man.Meta = make(map[string]string, len(meta))
		}
		maps.Copy(s.man.Meta, meta)
	}
	if err := s.saveManifestLocked(); err != nil {
		return err
	}
	mAppends.Inc()
	mAppendSecs.Observe(time.Since(t0).Seconds())
	return nil
}

// MetaPrefix returns a copy of every manifest meta entry whose key
// starts with prefix.
func (s *Store) MetaPrefix(prefix string) map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]string{}
	for k, v := range s.man.Meta {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = v
		}
	}
	return out
}

// writeSegmentLocked serialises records [from, to) of the (validated)
// batch into a new segment file and adds it to the in-memory manifest
// (not yet persisted). Caller holds s.mu.
func (s *Store) writeSegmentLocked(b *tweet.Batch, from, to int) error {
	h := header{
		version: segVersion,
		minTS:   b.TS[from],
		maxTS:   b.TS[from],
		minUser: b.UserID[from],
		maxUser: b.UserID[from],
		bbox:    geo.EmptyBBox(),
	}
	for i := from; i < to; i++ {
		if ts := b.TS[i]; ts < h.minTS {
			h.minTS = ts
		} else if ts > h.maxTS {
			h.maxTS = ts
		}
		if u := b.UserID[i]; u < h.minUser {
			h.minUser = u
		} else if u > h.maxUser {
			h.maxUser = u
		}
		h.bbox = h.bbox.Extend(geo.Point{Lat: b.Lat[i], Lon: b.Lon[i]})
	}
	bp := segBufs.Get().(*[]byte)
	defer segBufs.Put(bp)
	buf := encodeColumnsV2(slices.Grow((*bp)[:0], headerSize)[:headerSize], b, from, to)
	*bp = buf
	h.count = uint32(to - from)
	h.payloadLen = uint32(len(buf) - headerSize)
	h.crc = checksum(buf[headerSize:])
	putHeader(buf, h)

	name := fmt.Sprintf("seg-%06d.gmseg", s.man.NextSeq)
	if err := writeFile(filepath.Join(s.dir, name), buf); err != nil {
		return fmt.Errorf("tweetdb: write segment %s: %w", name, err)
	}
	s.man.NextSeq++
	s.man.Segments = append(s.man.Segments, SegmentMeta{
		File:    name,
		Count:   to - from,
		MinTS:   h.minTS,
		MaxTS:   h.maxTS,
		MinUser: h.minUser,
		MaxUser: h.maxUser,
		MinLat:  h.bbox.MinLat,
		MinLon:  h.bbox.MinLon,
		MaxLat:  h.bbox.MaxLat,
		MaxLon:  h.bbox.MaxLon,
		Bytes:   int64(len(buf)),
	})
	return nil
}

// saveManifestLocked persists the manifest atomically. Caller holds s.mu.
func (s *Store) saveManifestLocked() error {
	raw, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("tweetdb: marshal manifest: %w", err)
	}
	if err := writeFile(filepath.Join(s.dir, manifestName), raw); err != nil {
		return fmt.Errorf("tweetdb: save manifest: %w", err)
	}
	return nil
}

// writeFile is how segments and the manifest reach the disk; the tests of
// failed appends swap it for a write that fails on demand.
var writeFile = AtomicWriteFile

// AtomicWriteFile writes data to path via a temp file, fsync and rename, so
// readers — and the recovery path after a crash — never observe a
// partially written file. The store and the live snapshot both write
// through it.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// loadBlock reads, CRC-verifies and decodes one segment file into a
// column block: the integer columns are decoded, the coordinate columns
// alias the file bytes (zero copy).
func (s *Store) loadBlock(meta SegmentMeta) (*ColumnBlock, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, meta.File))
	if err != nil {
		return nil, fmt.Errorf("tweetdb: read segment %s: %w", meta.File, err)
	}
	s.segLoads.Add(1)
	mSegLoads.Inc()
	blk, err := decodeSegment(raw)
	if err != nil {
		return nil, fmt.Errorf("tweetdb: segment %s: %w", meta.File, err)
	}
	return blk, nil
}

// decodeSegment validates a segment file's header, payload length and
// payload checksum, then decodes its columns. The block aliases raw.
func decodeSegment(raw []byte) (*ColumnBlock, error) {
	h, err := unmarshalHeader(raw)
	if err != nil {
		return nil, err
	}
	if int(h.payloadLen) != len(raw)-headerSize {
		return nil, fmt.Errorf("payload length %d does not match file size %d", h.payloadLen, len(raw)-headerSize)
	}
	payload := raw[headerSize:]
	if got := checksum(payload); got != h.crc {
		return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", h.crc, got)
	}
	return decodeColumnsV2(payload, int(h.count))
}

// dropGarbageLocked unlinks segment files retired by Compact once no
// in-flight iterator can still reference them. Caller holds s.mu.
// Removal failures are retried at the next opportunity and are never
// fatal to correctness: the manifest no longer references the files.
func (s *Store) dropGarbageLocked() {
	if len(s.garbage) == 0 || s.activeScans.Load() != 0 {
		return
	}
	kept := s.garbage[:0]
	for _, f := range s.garbage {
		if err := removeFile(s.dir, f); err != nil {
			kept = append(kept, f)
		}
	}
	s.garbage = kept
	if len(s.garbage) == 0 {
		s.garbage = nil
	}
}

// scanReleased is the iterator's end-of-life hook: the last live iterator
// sweeps any segment files Compact retired while scans were in flight.
func (s *Store) scanReleased() {
	if s.activeScans.Add(-1) == 0 {
		s.mu.Lock()
		s.dropGarbageLocked()
		s.mu.Unlock()
	}
}

// Verify re-reads every segment, checking magic, checksums and record
// counts. It returns the first corruption found.
func (s *Store) Verify() error {
	for _, meta := range s.Segments() {
		blk, err := s.loadBlock(meta)
		if err != nil {
			return err
		}
		if blk.Len() != meta.Count {
			return fmt.Errorf("tweetdb: segment %s: manifest count %d != decoded %d", meta.File, meta.Count, blk.Len())
		}
	}
	return nil
}
