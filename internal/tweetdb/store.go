package tweetdb

import (
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
	"geomob/internal/wire"
)

// Store metrics (DESIGN.md §12): cumulative over every Store in the
// process (cluster shards open one per node).
var (
	mScans       = obs.Def.Counter("geomob_store_scans_total", "Store scans started (cache misses that went back to segments).")
	mSegLoads    = obs.Def.Counter("geomob_store_segment_loads_total", "Segment payloads decoded — the unit of real scan work.")
	mAppends     = obs.Def.Counter("geomob_store_appends_total", "Durable batch appends (segment writes + one catalogue log record).")
	mAppendSecs  = obs.Def.Histogram("geomob_store_append_seconds", "Latency of one durable batch append.", nil)
	mCompactions = obs.Def.Counter("geomob_store_compactions_total", "Store compactions completed.")
)

// DefaultSegmentRecords caps how many records a single segment holds. A
// segment is the unit of decode, so this bounds peak memory per iterator.
const DefaultSegmentRecords = 1 << 18

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
	// logSize is the length of the log's intact prefix; 0 while there is
	// no log or its tail is unknown, so the next commit checkpoints.
	logSize int64
	// garbage lists segment files retired by Compact that could not be
	// unlinked yet because scans were in flight; dropped as soon as the
	// store goes scan-idle.
	garbage []string
}

// Open opens (or initialises) the store in dir, creating the directory as
// needed and replaying the catalogue log. A torn last record is cut away;
// a damaged record before a good one, a segment the log names but the
// directory lacks, or a JSON manifest of an older build fail the open.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tweetdb: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tweetdb: list %s: %w", dir, err)
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		present[e.Name()] = true
	}
	if present[legacyManifest] {
		return nil, fmt.Errorf("tweetdb: open %s: it holds %s, the catalogue format before %s, which this build does not read", dir, legacyManifest, logName)
	}
	s := &Store{dir: dir, segRecords: DefaultSegmentRecords}
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	} else if err != nil {
		return nil, fmt.Errorf("tweetdb: read %s: %w", logName, err)
	}
	man, valid, err := replayLog(raw)
	if err != nil {
		return nil, err
	}
	if valid < len(raw) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("tweetdb: cut the torn tail of %s: %w", logName, err)
		}
	}
	for _, seg := range man.Segments {
		if !present[seg.File] {
			return nil, fmt.Errorf("tweetdb: %s names missing segment %s", logName, seg.File)
		}
	}
	s.man, s.logSize = man, int64(valid)
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
// DefaultSegmentRecords) and commits them to the catalogue. Records are
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
// validated, merging meta into the catalogue's key/value table in the
// same commit. The call's segments and meta keys commit in one log
// record, so they land together or not at all — the property cluster
// shards rely on to make redelivery deduplication exact across kill -9.
// A failed call leaves the store as it found it, so retrying the same
// batch commits it exactly once.
func (s *Store) AppendBatchMeta(b *tweet.Batch, meta map[string]string) error {
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
	if err := s.commitLocked(b, meta, false); err != nil {
		return err
	}
	mAppends.Inc()
	mAppendSecs.Observe(time.Since(t0).Seconds())
	return nil
}

// MetaPrefix returns a copy of every catalogue meta entry whose key
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

// commitLocked writes the (validated, sorted) batch as new segments and
// commits them with meta: segment fsyncs, one directory fsync, then one
// log record and its fsync. With replace they become the whole catalogue
// (Compact) and the log is rewritten as one checkpoint record, as it is
// once it grows past twice that size. A failure removes the call's
// segment files and leaves log and catalogue as they were. Caller holds s.mu.
func (s *Store) commitLocked(b *tweet.Batch, meta map[string]string, replace bool) (err error) {
	var segs []SegmentMeta
	defer func() {
		if err != nil {
			for _, m := range segs {
				_ = removeFile(s.dir, m.File) // named by no record; a leftover is overwritten with its name
			}
		}
	}()
	for off := 0; off < b.Len(); off += s.segRecords {
		m, err := s.writeSegment(b, off, min(off+s.segRecords, b.Len()), s.man.NextSeq+len(segs))
		if err != nil {
			return err
		}
		segs = append(segs, m)
	}
	if len(segs) > 0 {
		if err := SyncDir(s.dir); err != nil {
			return fmt.Errorf("tweetdb: sync %s: %w", s.dir, err)
		}
	}
	w := wire.NewWriter(nil)
	putLogRecord(&w, s.man.NextSeq+len(segs), segs, meta)
	rec := w.Bytes()
	var man manifest
	if !replace {
		man = s.man
		man.Meta = maps.Clone(man.Meta) // s.man keeps the table to fall back to
	}
	if err := man.apply(rec[8:]); err != nil {
		return fmt.Errorf("tweetdb: log record: %w", err)
	}
	path := filepath.Join(s.dir, logName)
	if replace || s.logSize == 0 || s.logSize+int64(len(rec)) > 2*man.checkpointBytes() {
		w = wire.NewWriter(append(make([]byte, 0, man.checkpointBytes()), logHeader...))
		putLogRecord(&w, man.NextSeq, man.Segments, man.Meta)
		if err := AtomicWriteFile(path, w.Bytes()); err != nil {
			return fmt.Errorf("tweetdb: checkpoint %s: %w", logName, err)
		}
		s.logSize = int64(w.Len())
	} else if err := syncWrite(path, os.O_WRONLY|os.O_APPEND, "append", rec); err != nil {
		if os.Truncate(path, s.logSize) != nil {
			s.logSize = 0
		}
		return fmt.Errorf("tweetdb: append to %s: %w", logName, err)
	} else {
		s.logSize += int64(len(rec))
	}
	s.man = man
	return nil
}

// writeSegment serialises records [from, to) of the (validated) batch
// into the new, fsynced segment file seq and returns its catalogue entry.
func (s *Store) writeSegment(b *tweet.Batch, from, to, seq int) (SegmentMeta, error) {
	m := SegmentMeta{File: segName(seq), seq: seq, Count: to - from,
		MinTS: b.TS[from], MaxTS: b.TS[from], MinUser: b.UserID[from], MaxUser: b.UserID[from]}
	bbox := geo.EmptyBBox()
	for i := from; i < to; i++ {
		m.MinTS, m.MaxTS = min(m.MinTS, b.TS[i]), max(m.MaxTS, b.TS[i])
		m.MinUser, m.MaxUser = min(m.MinUser, b.UserID[i]), max(m.MaxUser, b.UserID[i])
		bbox = bbox.Extend(geo.Point{Lat: b.Lat[i], Lon: b.Lon[i]})
	}
	m.MinLat, m.MinLon, m.MaxLat, m.MaxLon = bbox.MinLat, bbox.MinLon, bbox.MaxLat, bbox.MaxLon
	bp := segBufs.Get().(*[]byte)
	defer segBufs.Put(bp)
	buf := encodeColumnsV2(slices.Grow((*bp)[:0], headerSize)[:headerSize], b, from, to)
	*bp = buf
	m.Bytes = int64(len(buf))
	putHeader(buf, header{version: segVersion, count: uint32(m.Count), minTS: m.MinTS, maxTS: m.MaxTS, minUser: m.MinUser, maxUser: m.MaxUser,
		bbox: bbox, payloadLen: uint32(len(buf) - headerSize), crc: checksum(buf[headerSize:])})
	path := filepath.Join(s.dir, m.File)
	if err := syncWrite(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, "write", buf); err != nil {
		os.Remove(path)
		return m, fmt.Errorf("tweetdb: write segment %s: %w", m.File, err)
	}
	return m, nil
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
// fatal to correctness: the catalogue no longer names the files.
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
			return fmt.Errorf("tweetdb: segment %s: catalogue count %d != decoded %d", meta.File, meta.Count, blk.Len())
		}
	}
	return nil
}
