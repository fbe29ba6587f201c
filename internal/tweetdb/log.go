package tweetdb

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"geomob/internal/wire"
)

// The catalogue log MANIFEST.log (DESIGN.md §2, §9) is an 8-byte header
// and records, each one wire section holding one commit: the NextSeq
// after it, the segments it added and the meta keys it set. Replayed in
// order over an empty catalogue they give the store's. An append's one
// record, written and fsynced once, is its commit point; a checkpoint
// rewrites the log as one record holding the whole catalogue.
const (
	logName        = "MANIFEST.log"
	logHeader      = "GMSL\x01\x00\x00\x00" // magic "GMSL", version 1, reserved
	legacyManifest = "MANIFEST.json"        // the JSON catalogue the log replaced
)

// manifest is the catalogue the log replays to. Meta holds small key/values
// that commit with an append: the cluster's per-sender delivery marks ride
// in the record of the batch whose redelivery they deduplicate. size is
// about the bytes of the catalogue's entries in one record.
type manifest struct {
	NextSeq  int
	Segments []SegmentMeta
	Meta     map[string]string
	size     int
}

// checkpointBytes is about the size of the log as one checkpoint record.
func (m *manifest) checkpointBytes() int64 { return int64(len(logHeader) + 8 + 3*10 + m.size) }

func segName(seq int) string { return fmt.Sprintf("seg-%06d.gmseg", seq) }

// putLogRecord appends one record: nextSeq, the segments and the meta
// entries, keys ascending.
func putLogRecord(w *wire.Writer, nextSeq int, segs []SegmentMeta, meta map[string]string) {
	at := w.BeginSection()
	w.Uvarint(uint64(nextSeq))
	w.Uvarint(uint64(len(segs)))
	for _, m := range segs {
		w.Uvarint(uint64(m.seq))
		w.Uvarint(uint64(m.Count))
		for _, v := range []int64{m.MinTS, m.MaxTS, m.MinUser, m.MaxUser} {
			w.Varint(v)
		}
		for _, v := range []float64{m.MinLat, m.MinLon, m.MaxLat, m.MaxLon} {
			w.F64(v)
		}
		w.Uvarint(uint64(m.Bytes))
	}
	w.Uvarint(uint64(len(meta)))
	for _, k := range slices.Sorted(maps.Keys(meta)) {
		for _, s := range []string{k, meta[k]} {
			w.Uvarint(uint64(len(s)))
			w.Raw([]byte(s))
		}
	}
	w.EndSection(at)
}

// apply replays one record body over m: its segments join the catalogue,
// its meta keys overwrite theirs and NextSeq moves to its own. It refuses
// what no commit writes — sequences not ascending past the catalogue's
// and below NextSeq, an empty segment, meta keys out of order — and then
// leaves m partly applied.
func (m *manifest) apply(body []byte) error {
	r := wire.NewReader(body)
	next := r.Uvarint()
	if next < uint64(m.NextSeq) || next > 1<<48 {
		return fmt.Errorf("next sequence %d after %d", next, m.NextSeq)
	}
	for range r.Count(r.Uvarint(), 6+32+1) { // six one-byte varints, the bbox, the size
		at := r.Off()
		seq, count := r.Uvarint(), r.Uvarint()
		seg := SegmentMeta{File: segName(int(seq)), seq: int(seq), Count: int(count), MinTS: r.Varint(), MaxTS: r.Varint(),
			MinUser: r.Varint(), MaxUser: r.Varint(), MinLat: r.F64(), MinLon: r.F64(), MaxLat: r.F64(), MaxLon: r.F64()}
		size := r.Uvarint()
		if n := len(m.Segments); r.Err() == nil && (seq >= next || n > 0 && seg.seq <= m.Segments[n-1].seq || count == 0 || count > 1<<32 || size > 1<<40) {
			return fmt.Errorf("segment entry at byte %d: sequence %d, count %d, %d bytes", at, seq, count, size)
		}
		seg.Bytes = int64(size)
		m.Segments = append(m.Segments, seg)
		m.size += r.Off() - at
	}
	n := r.Count(r.Uvarint(), 2)
	if n > 0 && m.Meta == nil {
		m.Meta = make(map[string]string, n)
	}
	for i, prev := 0, ""; i < n && r.Err() == nil; i++ {
		k := string(r.Take(r.Count(r.Uvarint(), 1)))
		v := string(r.Take(r.Count(r.Uvarint(), 1)))
		if i > 0 && k <= prev {
			return fmt.Errorf("meta key %q after %q", k, prev)
		}
		if old, ok := m.Meta[k]; ok {
			m.size -= 2 + len(k) + len(old)
		}
		m.Meta[k], prev = v, k
		m.size += 2 + len(k) + len(v)
	}
	if err := r.End(); err != nil {
		return err
	}
	m.NextSeq = int(next)
	return nil
}

// replayLog rebuilds the catalogue from a log's bytes and returns it with
// the length of the log's intact prefix. A last record that is short or
// fails its CRC is a torn write, never acknowledged: it is left out of
// the prefix. A damaged record with bytes after it is corruption.
func replayLog(raw []byte) (m manifest, valid int, err error) {
	if !strings.HasPrefix(string(raw), logHeader) {
		return m, 0, fmt.Errorf("tweetdb: %s: header %q, want %q", logName, raw[:min(len(raw), len(logHeader))], logHeader)
	}
	var r wire.Reader
	for valid = len(logHeader); valid < len(raw); valid += r.Off() {
		rest := raw[valid:]
		r = wire.NewReader(rest)
		body := r.Section()
		if r.Err() != nil && (len(rest) < 8 || 8+uint64(wire.U32(rest)) >= uint64(len(rest))) {
			return m, valid, nil
		}
		if err := r.Err(); err != nil {
			return m, valid, fmt.Errorf("tweetdb: %s: record at byte %d: %w", logName, valid, err)
		}
		if err := m.apply(body); err != nil {
			return m, valid, fmt.Errorf("tweetdb: %s: record at byte %d: %w", logName, valid, err)
		}
	}
	return m, valid, nil
}
