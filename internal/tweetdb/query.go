package tweetdb

import (
	"fmt"

	"geomob/internal/geo"
	"geomob/internal/tweet"
)

// Query restricts a scan. Zero-value fields impose no restriction.
type Query struct {
	// FromTS and ToTS bound the tweet timestamp in milliseconds:
	// FromTS <= TS < ToTS. A zero ToTS means unbounded above.
	FromTS, ToTS int64
	// BBox restricts results spatially when non-nil.
	BBox *geo.BBox
	// UserID restricts results to one author when non-nil.
	UserID *int64
	// MinUserID and MaxUserID bound the author id inclusively when
	// non-nil. User ranges are the shard primitive of the parallel Study
	// pipeline: ShardQueries splits a query into user-disjoint ranges
	// that can be scanned concurrently.
	MinUserID, MaxUserID *int64
	// Files restricts the scan to the named segment files when non-nil.
	// Recovery uses it to replay exactly the manifest tail — the
	// segments appended after the last durable snapshot — without
	// touching the (much larger) covered prefix.
	Files []string
}

// matchesRow reports whether row i of a column block satisfies the query,
// without materialising the record.
func (q Query) matchesRow(blk *ColumnBlock, i int) bool {
	ts := blk.TS[i]
	if ts < q.FromTS {
		return false
	}
	if q.ToTS != 0 && ts >= q.ToTS {
		return false
	}
	u := blk.UserID[i]
	if q.UserID != nil && u != *q.UserID {
		return false
	}
	if q.MinUserID != nil && u < *q.MinUserID {
		return false
	}
	if q.MaxUserID != nil && u > *q.MaxUserID {
		return false
	}
	if q.BBox != nil && !q.BBox.Contains(blk.Point(i)) {
		return false
	}
	return true
}

// coversSegment reports whether every record of the segment is known to
// match from metadata alone — the dual of prunes, and the condition for
// handing a loaded block to the consumer without per-row filtering.
// Spatial queries never take the fast path: segment bounding boxes track
// unquantised coordinates, so edge rows are only decided exactly by the
// per-row check.
func (q Query) coversSegment(m SegmentMeta) bool {
	if q.BBox != nil {
		return false
	}
	if m.MinTS < q.FromTS {
		return false
	}
	if q.ToTS != 0 && m.MaxTS >= q.ToTS {
		return false
	}
	if q.UserID != nil && (m.MinUser != *q.UserID || m.MaxUser != *q.UserID) {
		return false
	}
	if q.MinUserID != nil && m.MinUser < *q.MinUserID {
		return false
	}
	if q.MaxUserID != nil && m.MaxUser > *q.MaxUserID {
		return false
	}
	return true
}

// prunes reports whether an entire segment can be skipped without reading
// its payload — the predicate-pushdown fast path.
func (q Query) prunes(m SegmentMeta) bool {
	if q.ToTS != 0 && m.MinTS >= q.ToTS {
		return true
	}
	if m.MaxTS < q.FromTS {
		return true
	}
	if q.UserID != nil && (*q.UserID < m.MinUser || *q.UserID > m.MaxUser) {
		return true
	}
	if q.MinUserID != nil && m.MaxUser < *q.MinUserID {
		return true
	}
	if q.MaxUserID != nil && m.MinUser > *q.MaxUserID {
		return true
	}
	if q.BBox != nil && !q.BBox.Intersects(m.BBox()) {
		return true
	}
	return false
}

// Iterator streams query results segment by segment. It is not safe for
// concurrent use. An iterator holds a catalogue snapshot: it keeps
// observing the segment set of its Scan call even across a concurrent
// Compact (whose retired files are unlinked only once every in-flight
// iterator finishes or is closed).
type Iterator struct {
	store    *Store
	query    Query
	segments []SegmentMeta
	segIdx   int
	block    *ColumnBlock
	rowIdx   int
	covered  bool // every row of block matches; no per-row filtering needed
	err      error
	released bool
	scanned  int // segments whose payload was decoded
	prunedN  int // segments skipped via metadata
}

// Scan returns an iterator over all records matching q. Results arrive in
// (user, time) order within each segment; use Compact for global order.
// Iterators release themselves when drained or failed; abandon one early
// only via Close, which lets the store reclaim compacted-away files.
func (s *Store) Scan(q Query) *Iterator {
	s.scans.Add(1)
	mScans.Inc()
	s.activeScans.Add(1)
	segments := s.Segments()
	if q.Files != nil {
		want := make(map[string]bool, len(q.Files))
		for _, f := range q.Files {
			want[f] = true
		}
		kept := segments[:0]
		for _, m := range segments {
			if want[m.File] {
				kept = append(kept, m)
			}
		}
		segments = kept
	}
	return &Iterator{store: s, query: q, segments: segments}
}

// release marks the iterator finished exactly once.
func (it *Iterator) release() {
	if !it.released {
		it.released = true
		it.store.scanReleased()
	}
}

// Close releases the iterator without draining it. It is idempotent and
// also implied by draining to exhaustion or hitting an error; every
// early-exiting consumer must call it (typically via defer) so a
// concurrent Compact's retired files do not linger.
func (it *Iterator) Close() {
	it.segIdx = len(it.segments)
	it.block = nil
	it.release()
}

// loadNext decodes the next non-pruned segment into it.block. It returns
// false when the scan is exhausted or failed.
func (it *Iterator) loadNext() bool {
	for {
		if it.segIdx >= len(it.segments) {
			it.release()
			return false
		}
		meta := it.segments[it.segIdx]
		it.segIdx++
		if it.query.prunes(meta) {
			it.prunedN++
			continue
		}
		blk, err := it.store.loadBlock(meta)
		if err != nil {
			it.err = err
			it.release()
			return false
		}
		it.scanned++
		it.block = blk
		it.rowIdx = 0
		it.covered = it.query.coversSegment(meta)
		return true
	}
}

// Next returns the next matching tweet. ok is false when the scan is
// exhausted or failed; check Err afterwards.
func (it *Iterator) Next() (t tweet.Tweet, ok bool) {
	if it.err != nil {
		it.release()
		return tweet.Tweet{}, false
	}
	for {
		for it.block != nil && it.rowIdx < it.block.Len() {
			i := it.rowIdx
			it.rowIdx++
			if it.covered || it.query.matchesRow(it.block, i) {
				return it.block.Row(i), true
			}
		}
		if !it.loadNext() {
			return tweet.Tweet{}, false
		}
	}
}

// NextBlock returns the next run of matching records as a column block —
// the zero-copy scan path. When the query covers a whole segment (always
// the case for the unrestricted scans of backfill and compaction) the
// block aliases the segment file bytes directly; otherwise matching rows
// are gathered into a fresh block. ok is false when the scan is exhausted
// or failed; check Err afterwards. Mixing NextBlock with Next is allowed:
// NextBlock resumes from the first unconsumed row.
func (it *Iterator) NextBlock() (blk *ColumnBlock, ok bool) {
	if it.err != nil {
		it.release()
		return nil, false
	}
	for {
		if it.block != nil && it.rowIdx < it.block.Len() {
			cur, start := it.block, it.rowIdx
			it.block, it.rowIdx = nil, 0
			if it.covered && start == 0 {
				return cur, true
			}
			out := &ColumnBlock{}
			for i := start; i < cur.Len(); i++ {
				if it.covered || it.query.matchesRow(cur, i) {
					out.appendRow(cur, i)
				}
			}
			if out.Len() > 0 {
				return out, true
			}
			continue
		}
		it.block = nil
		if !it.loadNext() {
			return nil, false
		}
	}
}

// Err returns the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }

// Stats returns how many segments were decoded and how many were pruned by
// metadata alone — the observable effect of predicate pushdown.
func (it *Iterator) Stats() (scanned, pruned int) { return it.scanned, it.prunedN }

// ReadAll drains the iterator into a slice.
func (it *Iterator) ReadAll() ([]tweet.Tweet, error) {
	var out []tweet.Tweet
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, it.Err()
}

// Compact merges every segment into a fresh set of segments holding all
// records in global (user, time) order, replacing the old catalogue and
// deleting the old files. Mobility extraction requires this order.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.man.Segments) == 0 {
		return nil
	}
	all := &tweet.Batch{}
	for _, meta := range s.man.Segments {
		blk, err := s.loadBlock(meta)
		if err != nil {
			return fmt.Errorf("tweetdb: compact: %w", err)
		}
		blk.AppendTo(all, 0, blk.Len())
	}
	all.Sort()
	old := s.man.Segments
	if err := s.commitLocked(all, s.man.Meta, true); err != nil {
		return fmt.Errorf("tweetdb: compact: %w", err)
	}
	// Old files are garbage only after the log no longer names
	// them — but an in-flight iterator's catalogue snapshot may still,
	// so deletion is deferred until the store goes scan-idle instead of
	// yanking files out from under concurrent readers.
	for _, meta := range old {
		s.garbage = append(s.garbage, meta.File)
	}
	s.dropGarbageLocked()
	mCompactions.Inc()
	return nil
}

// IsSorted reports whether the catalogue as a whole yields records in
// global (user, time) order, i.e. Compact has established the canonical
// layout and no appends broke it.
func (s *Store) IsSorted() (bool, error) {
	it := s.Scan(Query{})
	defer it.Close()
	var prev tweet.Tweet
	first := true
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		if !first {
			if t.UserID < prev.UserID || (t.UserID == prev.UserID && t.TS < prev.TS) {
				return false, nil
			}
		}
		prev, first = t, false
	}
	return it.Err() == nil, it.Err()
}
