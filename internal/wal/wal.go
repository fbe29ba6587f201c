// Package wal implements the coordinator's segmented write-ahead
// ingest spool (DESIGN.md §10). The cluster acknowledges /v1/ingest
// only after the batch frame is durably appended here; per-shard
// delivery lanes then replay spooled frames with retry, and a record
// is dropped once every replica destination has acknowledged it.
//
// A spool is a directory of append-only segment files plus a SENDER
// file holding the coordinator's stable sender identity. Each data
// record wraps one PR 6 binary batch frame (the exact bytes shipped to
// shards) together with its destination slot, a bitmask of replica
// node indexes still owed the frame, and a monotone sequence number.
// Shards deduplicate on (sender, seq), which makes replay after a
// crash or a redelivery after an ambiguous failure idempotent.
//
// Durability model: AppendGroup returns only after every record of the
// group has reached the file and one fsync has covered them all — the
// group is one Write and one Sync, however many frames it carries, and
// no sequence number leaves the spool before that: PendingForNode stops
// at the first record whose group's fsync has not returned, and a group
// whose write or fsync failed is never pending. Each frame is still
// its own CRC'd record with its own sequence number and destination
// mask, so recovery, acks and (sender, seq) dedup see no difference
// between a group of sixteen and sixteen single appends. Appenders on
// different goroutines additionally share fsyncs: whichever syncs first
// covers everything written before it. Ack records are appended without
// a sync — a lost ack merely causes a redelivery that the shard
// deduplicates.
//
// Recovery scans segments in order and keeps every record up to the
// first corruption (CRC mismatch, truncated tail, bad header);
// everything after it, including later segments, is abandoned — the
// intact-prefix contract the corruption tests pin. Recovery never
// panics on arbitrary byte damage. When a corruption is detected the
// next sequence number is additionally bumped by a large safety margin
// so seqs that may have been issued beyond the damaged point are never
// reused with different payloads.
package wal

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"geomob/internal/obs"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
	"geomob/internal/wire"
)

// fault runs before each group-commit fsync, directory fsync and SENDER
// write the spool makes and fails it with the error it returns. The
// tests record the order of the operations and fail or hold them
// through it.
var fault = func(op, path string) error { return nil }

// Spool metrics (DESIGN.md §12). Appends count frames and fsyncs count
// Sync calls actually issued, so appends/fsyncs is the group-commit
// sharing ratio (16 for a request touching every slot); append_seconds
// times one group's full durability path, write plus fsync. Ack
// counters cover delivery acknowledgements only — boot replay restores
// pending state without touching them.
var (
	mWalAppends     = obs.Def.Counter("geomob_wal_appends_total", "Batch frames durably appended to the ingest spool.")
	mWalAppendBytes = obs.Def.Counter("geomob_wal_append_bytes_total", "Payload bytes durably appended to the ingest spool.")
	mWalAppendSecs  = obs.Def.Histogram("geomob_wal_append_seconds", "Latency of one durable spool group append including fsync.", nil)
	mWalFsyncs      = obs.Def.Counter("geomob_wal_fsyncs_total", "fsync calls issued by the spool (group commit shares them).")
	mWalAcks        = obs.Def.Counter("geomob_wal_acks_total", "Per-node delivery acknowledgements recorded in the spool.")
	mWalReplayed    = obs.Def.Counter("geomob_wal_replayed_frames_total", "Still-pending frames restored from spool segments at boot.")
)

const (
	segMagic   = 0x4c574d47 // "GMWL" little-endian
	segVersion = 1
	// magic u32 | version u16 | reserved u16 | floorSeq u64 | crc32 of
	// the preceding 16 bytes — any damaged header byte reads as
	// corruption, keeping the intact-prefix rule uniform.
	segHeader = 20

	recHeader  = 8  // payloadLen u32 | crc32(payload) u32
	dataHeader = 24 // kind u8 | slot u8 | reserved u16 | rows u32 | seq u64 | destMask u64

	kindData = 1
	kindAck  = 2 // kind u8 | reserved u8+u16 | node u32 | seq u64 (16 bytes)
	ackLen   = 16

	// maxPayloadBytes rejects absurd lengths during recovery so a
	// corrupted length field cannot trigger a giant allocation.
	maxPayloadBytes = 256 << 20

	// seqSkipOnCorruption is added to the recovered sequence floor when
	// a damaged segment is found: records beyond the corruption point
	// may have carried seqs we can no longer read, and reusing a seq
	// with a different payload would be silently deduplicated by shards.
	seqSkipOnCorruption = 1 << 20

	// defaultSegmentBytes rolls the active segment once it crosses
	// 64 MiB, bounding both the recovery scan unit and how long a
	// fully-acked range can pin disk space.
	defaultSegmentBytes = 64 << 20

	// MaxNodes is how many destination nodes a record can name: one bit
	// each of its uint64 destination mask.
	MaxNodes = 64

	// retainBytes bounds the frame bytes the spool keeps in memory for
	// the lanes to read back. A frame appended while the retained frames
	// fill it, or recovered at boot, is reloaded from its segment.
	retainBytes = 16 << 20
)

// Options configures Open.
type Options struct {
	// Dir is the spool directory; created if absent.
	Dir string
	// SegmentBytes overrides the roll threshold (defaultSegmentBytes
	// when <= 0). Tests use tiny segments to exercise rolling.
	SegmentBytes int64
}

// Record is one pending spooled frame, returned by PendingForNode with
// its frame bytes.
type Record struct {
	Seq   uint64
	Slot  int
	Dests uint64 // bitmask of node indexes still owed this frame
	Rows  int
	Frame []byte
}

// Stats summarises spool state for health reporting.
type Stats struct {
	PendingRecords int
	PendingRows    int64
	RetainedBytes  int64 // pending frame bytes held in memory (at most retainBytes)
	Segments       int
	NextSeq        uint64
	Corrupt        bool // recovery abandoned a damaged suffix
}

type prec struct {
	seq     uint64
	slot    uint8
	mask    uint64
	rows    int32
	seg     int
	off     int64  // record start (length field) within its segment
	n       int32  // total record bytes including the 8-byte header
	durable bool   // its group's fsync has returned
	frame   []byte // retained frame bytes; nil means reload from seg
}

// Spool is a durable ingest spool. All methods are safe for concurrent
// use.
type Spool struct {
	dir      string
	sender   string
	segBytes int64

	mu         sync.Mutex
	f          *os.File // active segment, nil until first append
	fIdx       int
	fSize      int64
	maxSeg     int // highest segment index present (never deleted)
	nextSeq    uint64
	nextSeg    int
	index      map[uint64]*prec
	owed       map[int][]*prec       // per node, ascending seq; acked entries linger until read past
	segPending map[int]int           // unacked data records per segment
	rowsNode   map[int]int64         // pending rows per destination node
	rowsSN     map[int]map[int]int64 // node -> slot -> pending rows
	retained   int64                 // bytes of the index's retained frames
	corrupt    bool

	syncMu  sync.Mutex
	syncIdx int
	syncOff int64
}

// Open opens or creates the spool at opts.Dir, recovering any pending
// records from existing segments.
func Open(opts Options) (*Spool, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty spool directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create spool dir: %w", err)
	}
	s := &Spool{
		dir:        opts.Dir,
		segBytes:   opts.SegmentBytes,
		fIdx:       -1,
		maxSeg:     -1,
		nextSeq:    1,
		index:      map[uint64]*prec{},
		owed:       map[int][]*prec{},
		segPending: map[int]int{},
		rowsNode:   map[int]int64{},
		rowsSN:     map[int]map[int]int64{},
		syncIdx:    -1,
	}
	if s.segBytes <= 0 {
		s.segBytes = defaultSegmentBytes
	}
	if err := s.loadSender(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// SenderID returns the spool's stable sender identity. Shards key
// their delivery high-water marks on it, so it persists across
// coordinator restarts — replayed frames keep deduplicating.
func (s *Spool) SenderID() string { return s.sender }

func (s *Spool) loadSender() error {
	path := filepath.Join(s.dir, "SENDER")
	if raw, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(raw))
		if id == "" {
			return fmt.Errorf("wal: empty SENDER file %s", path)
		}
		s.sender = id
		return nil
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return fmt.Errorf("wal: generate sender id: %w", err)
	}
	s.sender = hex.EncodeToString(buf[:])
	// A SENDER lost to a power loss would mint a new id, under which
	// shards no longer deduplicate the frames the spool replays.
	if err := fault("sender", path); err != nil {
		return err
	}
	return tweetdb.AtomicWriteFile(path, []byte(s.sender+"\n"))
}

func segName(idx int) string { return fmt.Sprintf("spool-%08d.wal", idx) }

func (s *Spool) segPath(idx int) string { return filepath.Join(s.dir, segName(idx)) }

func (s *Spool) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segs []int
	for _, e := range entries {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "spool-%d.wal", &idx); n == 1 {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	var floor uint64
	for _, idx := range segs {
		if idx > s.maxSeg {
			s.maxSeg = idx
		}
		if idx >= s.nextSeg {
			s.nextSeg = idx + 1
		}
		if s.corrupt {
			// A damaged earlier segment already ended the intact
			// prefix; later segments are abandoned, not parsed.
			continue
		}
		segFloor, clean := s.scanSegment(idx)
		if segFloor > floor {
			floor = segFloor
		}
		if !clean {
			s.corrupt = true
		}
	}
	if floor >= s.nextSeq {
		s.nextSeq = floor
	}
	if s.corrupt {
		s.nextSeq += seqSkipOnCorruption
	}
	// Drop cleanly fully-acked segments, keeping the highest so the
	// sequence floor in its header survives a fully-drained spool.
	if !s.corrupt {
		for _, idx := range segs {
			if s.segPending[idx] == 0 && idx != s.maxSeg {
				os.Remove(s.segPath(idx))
				delete(s.segPending, idx)
			}
		}
	}
	return nil
}

// scanSegment indexes one segment's records, returning the smallest
// sequence number the spool may issue next (one past everything seen,
// and at least the segment's header floor) and whether the whole
// segment parsed cleanly.
func (s *Spool) scanSegment(idx int) (floor uint64, clean bool) {
	raw, err := os.ReadFile(s.segPath(idx))
	if err != nil {
		return 0, false
	}
	r := wire.NewReader(raw)
	magic, version := r.U32(), r.U16()
	r.Zero(2)
	floor = r.U64()
	r.CRC(0)
	if r.Err() != nil || magic != segMagic || version != segVersion {
		return 0, false
	}
	for r.Len() >= recHeader {
		off := int64(r.Off())
		plen, crc := r.U32(), r.U32()
		if plen == 0 || plen > maxPayloadBytes {
			return floor, false
		}
		payload := r.Checked(int(plen), crc)
		if r.Err() != nil {
			return floor, false
		}
		p := wire.NewReader(payload)
		switch p.U8() {
		case kindData:
			rec := &prec{slot: p.U8(), seg: idx, off: off, n: int32(recHeader + plen)}
			p.Zero(2)
			rows := p.U32()
			rec.rows = int32(rows)
			rec.seq, rec.mask = p.U64(), p.U64()
			// rows feeds the per-node pending counts that steer reads away
			// from a replica still owed the frame, so it must be the
			// frame's own count.
			if p.Err() != nil || rows != uint32(tweet.FrameRows(payload[dataHeader:])) {
				return floor, false
			}
			if rec.seq >= floor {
				floor = rec.seq + 1
			}
			if rec.mask != 0 {
				rec.durable = true
				s.addPending(rec)
				mWalReplayed.Inc()
			}
		case kindAck:
			p.Zero(3)
			node, seq := int(p.U32()), p.U64()
			if plen != ackLen || p.Err() != nil {
				return floor, false
			}
			s.clearPendingLocked(seq, node)
		default:
			return floor, false
		}
	}
	// Trailing bytes shorter than a record header are a torn final
	// write: the prefix stands but the segment is not clean.
	return floor, r.Len() == 0
}

// addPending indexes rec as owed to the nodes in its mask. Caller holds
// mu (or is single-threaded recovery) and adds records in ascending
// sequence order.
func (s *Spool) addPending(rec *prec) {
	s.index[rec.seq] = rec
	s.segPending[rec.seg]++
	s.retained += int64(len(rec.frame))
	for node, mask := 0, rec.mask; mask != 0; node++ {
		if mask&1 != 0 {
			s.owed[node] = append(s.owed[node], rec)
			s.rowsNode[node] += int64(rec.rows)
			sn := s.rowsSN[node]
			if sn == nil {
				sn = map[int]int64{}
				s.rowsSN[node] = sn
			}
			sn[int(rec.slot)] += int64(rec.rows)
		}
		mask >>= 1
	}
}

// clearPendingLocked applies one ack to the in-memory index. Caller
// holds mu (or is single-threaded recovery).
func (s *Spool) clearPendingLocked(seq uint64, node int) (cleared bool) {
	rec := s.index[seq]
	if rec == nil || rec.mask&(1<<uint(node)) == 0 {
		return false
	}
	rec.mask &^= 1 << uint(node)
	s.rowsNode[node] -= int64(rec.rows)
	if sn := s.rowsSN[node]; sn != nil {
		sn[int(rec.slot)] -= int64(rec.rows)
		if sn[int(rec.slot)] <= 0 {
			delete(sn, int(rec.slot))
		}
	}
	if rec.mask == 0 {
		delete(s.index, seq)
		s.retained -= int64(len(rec.frame))
		rec.frame = nil
		s.segPending[rec.seg]--
		if s.segPending[rec.seg] == 0 && rec.seg != s.fIdx && rec.seg != s.maxSeg {
			os.Remove(s.segPath(rec.seg))
			delete(s.segPending, rec.seg)
		}
	}
	return true
}

func (s *Spool) ensureActiveLocked() error {
	if s.f != nil && s.fSize < s.segBytes {
		return nil
	}
	if s.f != nil {
		// Roll: the old segment must be fully durable before it stops
		// receiving group-commit syncs.
		if err := s.f.Sync(); err != nil {
			return err
		}
		s.f.Close()
		s.f = nil
	}
	idx := s.nextSeg
	path := s.segPath(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := wire.NewWriter(make([]byte, 0, segHeader))
	hdr.U32(segMagic)
	hdr.U16(segVersion)
	hdr.Zero(2)
	hdr.U64(s.nextSeq)
	hdr.CRC(0)
	_, err = f.Write(hdr.Bytes())
	// The new name must be durable before a group in it is acknowledged:
	// the group's fsync covers the file's bytes, not its directory entry.
	if err == nil {
		err = fault("syncdir", s.dir)
	}
	if err == nil {
		err = tweetdb.SyncDir(s.dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.f, s.fIdx, s.fSize = f, idx, segHeader
	s.nextSeg = idx + 1
	if idx > s.maxSeg {
		s.maxSeg = idx
	}
	return nil
}

// writeLocked appends already-framed records to the active segment in
// one Write, returning the segment index and offset they start at. A
// failed or short write is rolled back (truncate + seek) so whatever
// is appended next does not sit behind a torn record that recovery
// would stop at. Caller holds mu.
func (s *Spool) writeLocked(recs []byte) (seg int, off int64, err error) {
	if err := s.ensureActiveLocked(); err != nil {
		return 0, 0, err
	}
	if _, err := s.f.Write(recs); err != nil {
		if terr := s.f.Truncate(s.fSize); terr == nil {
			_, _ = s.f.Seek(s.fSize, io.SeekStart)
		}
		return 0, 0, err
	}
	off = s.fSize
	s.fSize += int64(len(recs))
	return s.fIdx, off, nil
}

// Entry is one frame of a group append: the placement slot it belongs
// to, the bitmask of replica node indexes owed it, and the frame bytes.
// The spool may keep Frame until every destination has acked it, so the
// caller must not modify it after the append.
type Entry struct {
	Slot  int
	Dests uint64
	Frame []byte
}

// Append durably spools one batch frame bound for the replica nodes in
// destMask and returns its sequence number — AppendGroup of one.
func (s *Spool) Append(slot int, destMask uint64, frame []byte) (uint64, error) {
	return s.AppendGroup([]Entry{{Slot: slot, Dests: destMask, Frame: frame}})
}

// AppendGroup durably spools the entries as consecutive records and
// returns the first one's sequence number; entry i holds first+i. The
// records are built in one buffer, written with one Write and covered
// by one fsync before this returns — the cluster's ingest
// acknowledgement point, paid once per request rather than once per
// slot. The records become pending when that fsync returns; if the write
// or the fsync fails none of them ever is, and on any error none of the
// sequence numbers is ever issued again.
func (s *Spool) AppendGroup(es []Entry) (first uint64, err error) {
	if len(es) == 0 {
		return 0, fmt.Errorf("wal: empty append group")
	}
	size := 0
	for _, e := range es {
		if e.Dests == 0 {
			return 0, fmt.Errorf("wal: empty destination mask")
		}
		if e.Slot < 0 || e.Slot > 255 {
			return 0, fmt.Errorf("wal: slot %d out of range", e.Slot)
		}
		size += recHeader + dataHeader + len(e.Frame)
	}
	t0 := time.Now()

	s.mu.Lock()
	first = s.nextSeq
	w := wire.NewWriter(make([]byte, 0, size))
	recs := make([]prec, len(es))
	for i, e := range es {
		start := w.BeginSection()
		rows := tweet.FrameRows(e.Frame)
		w.U8(kindData)
		w.U8(byte(e.Slot))
		w.Zero(2)
		w.U32(uint32(rows))
		w.U64(first + uint64(i))
		w.U64(e.Dests)
		w.Raw(e.Frame)
		w.EndSection(start)
		recs[i] = prec{
			seq:  first + uint64(i),
			slot: uint8(e.Slot),
			mask: e.Dests,
			rows: int32(rows),
			off:  int64(start),
			n:    int32(w.Len() - start),
		}
	}
	seg, base, err := s.writeLocked(w.Bytes())
	// The range is burned even when the write failed: a group that fails
	// part-way may have left whole records on disk, and a sequence
	// recovered from there must never also name a later payload.
	s.nextSeq = first + uint64(len(es))
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	// Indexed now, in sequence order behind every earlier group, but not
	// durable until the fsync below returns.
	for i := range recs {
		rec := &recs[i]
		rec.seg, rec.off = seg, base+rec.off
		if s.retained+int64(len(es[i].Frame)) <= retainBytes {
			rec.frame = es[i].Frame
		}
		s.addPending(rec)
	}
	f, target := s.f, s.fSize
	s.mu.Unlock()

	err = s.syncTo(f, seg, target)
	s.mu.Lock()
	for i := range recs {
		rec := &recs[i]
		if err == nil {
			rec.durable = true
			continue
		}
		for node := 0; node < MaxNodes; node++ {
			s.clearPendingLocked(rec.seq, node)
		}
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	mWalAppends.Add(int64(len(es)))
	mWalAppendBytes.Add(int64(size - len(es)*recHeader))
	mWalAppendSecs.Observe(time.Since(t0).Seconds())
	return first, nil
}

// syncTo implements group commit: returns once bytes [0, target) of
// segment fileIdx are durable, piggybacking on any fsync that already
// covered them.
func (s *Spool) syncTo(f *os.File, fileIdx int, target int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if fileIdx < s.syncIdx || (fileIdx == s.syncIdx && target <= s.syncOff) {
		return nil
	}
	// Rolling syncs the old file before retiring it, so if the active
	// segment moved past fileIdx these bytes are already durable.
	s.mu.Lock()
	curIdx, curSize := s.fIdx, s.fSize
	s.mu.Unlock()
	if fileIdx < curIdx {
		if fileIdx > s.syncIdx {
			s.syncIdx, s.syncOff = fileIdx, target
		}
		return nil
	}
	err := fault("sync", f.Name())
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		// A concurrent roll may have synced and closed this handle
		// between the size snapshot and our Sync; those bytes are
		// already durable.
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		return err
	}
	mWalFsyncs.Inc()
	s.syncIdx, s.syncOff = curIdx, curSize
	return nil
}

// AckBatch marks the sequences delivered to node — the lane's companion
// to a batched shard delivery: one lock acquisition and one Write
// carrying the drain's ack records. When every destination of a record
// has acked, it is dropped and its segment reclaimed once empty. Acks
// are logged but not fsynced: a lost ack is redelivered and
// deduplicated by the shard.
func (s *Spool) AckBatch(seqs []uint64, node int) error {
	if node < 0 || node >= MaxNodes {
		return fmt.Errorf("wal: node %d out of range", node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ackLocked(seqs, node)
}

// ackLocked clears node's claim on each still-pending sequence and logs
// the acks as one write. Caller holds mu.
func (s *Spool) ackLocked(seqs []uint64, node int) error {
	w := wire.NewWriter(make([]byte, 0, len(seqs)*(recHeader+ackLen)))
	for _, seq := range seqs {
		if !s.clearPendingLocked(seq, node) {
			continue
		}
		mWalAcks.Inc()
		at := w.BeginSection()
		w.U8(kindAck)
		w.Zero(3)
		w.U32(uint32(node))
		w.U64(seq)
		w.EndSection(at)
	}
	if w.Len() == 0 {
		return nil
	}
	_, _, err := s.writeLocked(w.Bytes())
	return err
}

// PendingForNode returns the lowest records still owed to node, up to
// max of them (all when max <= 0), in ascending sequence order. It stops
// at the first record whose group's fsync has not returned, so only
// durable frames leave the spool. A delivery lane reads its next drain
// here, at boot and after every append alike.
func (s *Spool) PendingForNode(node int, max int) ([]Record, error) {
	bit := uint64(1) << uint(node)
	s.mu.Lock()
	q := s.owed[node]
	for len(q) > 0 && q[0].mask&bit == 0 {
		q[0] = nil
		q = q[1:]
	}
	s.owed[node] = q
	// Snapshot the records before unlocking; one may be acked by another
	// node concurrently (the frame bytes on disk are immutable until the
	// whole segment is reclaimed, and reclaim requires node's ack, which
	// only node's lane sends).
	var snap []prec
	for _, rec := range q {
		if max > 0 && len(snap) == max {
			break
		}
		if rec.mask&bit == 0 {
			continue // a failed group's record, or one acked out of order
		}
		if !rec.durable {
			break
		}
		snap = append(snap, *rec)
	}
	s.mu.Unlock()

	out := make([]Record, 0, len(snap))
	for i := range snap {
		rec := &snap[i]
		frame := rec.frame
		if frame == nil {
			var err error
			if frame, err = s.load(rec); err != nil {
				return out, err
			}
		}
		out = append(out, Record{
			Seq:   rec.seq,
			Slot:  int(rec.slot),
			Dests: rec.mask,
			Rows:  int(rec.rows),
			Frame: frame,
		})
	}
	return out, nil
}

// load re-reads one data record's frame bytes from its segment,
// re-validating the CRC.
func (s *Spool) load(rec *prec) ([]byte, error) {
	f, err := os.Open(s.segPath(rec.seg))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, rec.n)
	if _, err := f.ReadAt(buf, rec.off); err != nil {
		return nil, fmt.Errorf("wal: reload seq %d: %w", rec.seq, err)
	}
	r := wire.NewReader(buf)
	payload := r.Section()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wal: reload seq %d: %w", rec.seq, err)
	}
	return payload[dataHeader:], nil
}

// PendingRowsNode reports how many tweet rows are spooled for node.
func (s *Spool) PendingRowsNode(node int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsNode[node]
}

// PendingRowsSlotNode reports how many rows of slot are still owed to
// node — zero means the node's copy of the slot is current and safe to
// serve reads from.
func (s *Spool) PendingRowsSlotNode(node, slot int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.rowsSN[node]; sn != nil {
		return sn[slot]
	}
	return 0
}

// Stats summarises the spool for health endpoints.
func (s *Spool) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		PendingRecords: len(s.index),
		RetainedBytes:  s.retained,
		NextSeq:        s.nextSeq,
		Corrupt:        s.corrupt,
	}
	for _, rec := range s.index {
		st.PendingRows += int64(rec.rows)
	}
	segs := map[int]bool{}
	for _, rec := range s.index {
		segs[rec.seg] = true
	}
	if s.f != nil {
		segs[s.fIdx] = true
	}
	st.Segments = len(segs)
	return st
}

// Close syncs and closes the active segment. Pending records stay on
// disk for the next Open to replay.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
