package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// corruptionFixture builds a spool with nRecords data records in one
// segment — appended singly, or as one group — closes it, and returns
// the segment path plus the byte boundaries [start, end) of each record
// within the file.
func corruptionFixture(t testing.TB, dir string, nRecords int, grouped bool) (segPath string, seqs []uint64, bounds [][2]int64) {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	group := make([]Entry, nRecords)
	for i := range group {
		group[i] = Entry{Slot: i % 8, Dests: 0b1, Frame: testFrame(t, int64(i)*100, 2+i%3)}
	}
	if grouped {
		first, err := s.AppendGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		for i := range group {
			seqs = append(seqs, first+uint64(i))
		}
	} else {
		for _, e := range group {
			seq, err := s.Append(e.Slot, e.Dests, e.Frame)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath = filepath.Join(dir, "spool-00000000.wal")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(segHeader)
	for off < int64(len(raw)) {
		plen := int64(binary.LittleEndian.Uint32(raw[off : off+4]))
		end := off + recHeader + plen
		bounds = append(bounds, [2]int64{off, end})
		off = end
	}
	if len(bounds) != nRecords {
		t.Fatalf("fixture parsed %d records, want %d", len(bounds), nRecords)
	}
	return segPath, seqs, bounds
}

// expectPrefix reports how many leading records survive damage at byte
// offset p: every record whose bytes all precede p.
func expectPrefix(bounds [][2]int64, p int64) int {
	n := 0
	for _, b := range bounds {
		if b[1] <= p {
			n++
		} else {
			break
		}
	}
	return n
}

// reopenScratch copies the damaged segment (and SENDER) into a fresh
// dir and opens a spool over it.
func reopenScratch(t testing.TB, srcDir string, seg []byte) (*Spool, error) {
	t.Helper()
	dir := t.TempDir()
	sender, err := os.ReadFile(filepath.Join(srcDir, "SENDER"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "SENDER"), sender, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spool-00000000.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(Options{Dir: dir})
}

// TestSpoolCorruptionMatrix flips every byte of a spool segment in
// turn: recovery must keep exactly the records preceding the damage,
// must flag the spool corrupt, and must never panic — the same
// contract the PR 6 store corruption matrix pins for segments.
func TestSpoolCorruptionMatrix(t *testing.T) {
	srcDir := t.TempDir()
	segPath, seqs, bounds := corruptionFixture(t, srcDir, 8, false)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < int64(len(raw)); p++ {
		damaged := append([]byte(nil), raw...)
		damaged[p] ^= 0xA5
		s, err := reopenScratch(t, srcDir, damaged)
		if err != nil {
			t.Fatalf("flip at byte %d: Open failed: %v", p, err)
		}
		want := expectPrefix(bounds, p)
		got := pendingSeqs(t, s, 0)
		if len(got) != want {
			s.Close()
			t.Fatalf("flip at byte %d: recovered %d records (%v), want prefix of %d", p, len(got), got, want)
		}
		for i := 0; i < want; i++ {
			if got[i] != seqs[i] {
				s.Close()
				t.Fatalf("flip at byte %d: recovered seq %d at position %d, want %d", p, got[i], i, seqs[i])
			}
		}
		if st := s.Stats(); !st.Corrupt {
			s.Close()
			t.Fatalf("flip at byte %d: spool not flagged corrupt", p)
		}
		// The damaged spool must keep working: new appends get fresh
		// sequence numbers far above anything possibly issued before.
		// (Sampled — the append itself is the expensive part.)
		if p%13 == 0 {
			seq, err := s.Append(0, 0b1, testFrame(t, 7777, 1))
			if err != nil {
				s.Close()
				t.Fatalf("flip at byte %d: append after recovery failed: %v", p, err)
			}
			if seq <= seqs[len(seqs)-1] {
				s.Close()
				t.Fatalf("flip at byte %d: post-recovery seq %d not above issued max %d", p, seq, seqs[len(seqs)-1])
			}
		}
		s.Close()
	}
}

// TestSpoolTruncationMatrix truncates the segment at every length:
// recovery keeps the wholly-contained records and never panics. A torn
// final record — the normal kill -9 shape — flags the spool corrupt
// but loses nothing that was acknowledged durable before the cut.
func TestSpoolTruncationMatrix(t *testing.T) {
	srcDir := t.TempDir()
	segPath, seqs, bounds := corruptionFixture(t, srcDir, 8, false)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut < int64(len(raw)); cut++ {
		s, err := reopenScratch(t, srcDir, raw[:cut])
		if err != nil {
			t.Fatalf("truncate at %d: Open failed: %v", cut, err)
		}
		want := expectPrefix(bounds, cut)
		got := pendingSeqs(t, s, 0)
		if len(got) != want {
			s.Close()
			t.Fatalf("truncate at %d: recovered %d records, want %d", cut, len(got), want)
		}
		for i := 0; i < want; i++ {
			if got[i] != seqs[i] {
				s.Close()
				t.Fatalf("truncate at %d: recovered seq %d, want %d", cut, got[i], seqs[i])
			}
		}
		s.Close()
	}
}

// TestSpoolAckCorruption: damaging an ack record re-pends the acked
// data — redelivery is safe (shards deduplicate), losing data is not.
func TestSpoolAckCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Append(3, 0b1, testFrame(t, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AckBatch([]uint64{seq}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "spool-00000000.wal")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// The ack is the final record; flip a byte inside its payload.
	damaged := append([]byte(nil), raw...)
	damaged[len(damaged)-1] ^= 0xFF
	if err := os.WriteFile(segPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := pendingSeqs(t, s2, 0)
	if len(got) != 1 || got[0] != seq {
		t.Fatalf("lost-ack recovery pending = %v, want [%d]", got, seq)
	}
}

// TestSpoolTornGroup damages one 16-record group append — the shape a
// cluster ingest request now has on disk — at every byte: cut short
// there, and flipped there. A group is sixteen ordinary records, so the
// intact-prefix contract applies record by record: reopening never
// panics and keeps exactly the records wholly before the damage.
// Detectable damage (anything but a cut on a record boundary) also
// lifts NextSeq past all sixteen sequences. A cut exactly between
// records reads as a clean, shorter spool whose NextSeq follows the
// prefix — sound, because the group's one fsync had then not returned,
// so no sequence of it ever reached a lane.
func TestSpoolTornGroup(t *testing.T) {
	srcDir := t.TempDir()
	segPath, seqs, bounds := corruptionFixture(t, srcDir, 16, true)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if seq != seqs[0]+uint64(i) {
			t.Fatalf("group sequences not contiguous: %v", seqs)
		}
	}
	last := seqs[len(seqs)-1]
	check := func(what string, p int64, damaged []byte, detectable bool) {
		t.Helper()
		s, err := reopenScratch(t, srcDir, damaged)
		if err != nil {
			t.Fatalf("%s at byte %d: Open failed: %v", what, p, err)
		}
		defer s.Close()
		want := expectPrefix(bounds, p)
		got := pendingSeqs(t, s, 0)
		if len(got) != want {
			t.Fatalf("%s at byte %d: recovered %d records (%v), want prefix of %d", what, p, len(got), got, want)
		}
		for i := range got {
			if got[i] != seqs[i] {
				t.Fatalf("%s at byte %d: recovered seq %d at position %d, want %d", what, p, got[i], i, seqs[i])
			}
		}
		st := s.Stats()
		if st.Corrupt != detectable {
			t.Fatalf("%s at byte %d: corrupt = %v, want %v", what, p, st.Corrupt, detectable)
		}
		if detectable && st.NextSeq <= last {
			t.Fatalf("%s at byte %d: NextSeq %d not past the group's last sequence %d", what, p, st.NextSeq, last)
		}
		if want > 0 && st.NextSeq <= seqs[want-1] {
			t.Fatalf("%s at byte %d: NextSeq %d not past recovered sequence %d", what, p, st.NextSeq, seqs[want-1])
		}
	}
	for p := bounds[0][0]; p < int64(len(raw)); p++ {
		onBoundary := false
		for _, b := range bounds {
			onBoundary = onBoundary || b[0] == p
		}
		check("truncate", p, raw[:p], !onBoundary)
		flipped := append([]byte(nil), raw...)
		flipped[p] ^= 0xA5
		check("flip", p, flipped, true)
	}
}

// refRecover is the fuzz oracle: an independent walk of one segment's
// bytes under the documented format (reserved bytes zero, a data
// record's rows equal to its frame's) and the intact-prefix rule, returning each record still pending (seq →
// destination mask) and whether the whole file parsed.
func refRecover(raw []byte) (pending map[uint64]uint64, clean bool) {
	le := binary.LittleEndian
	pending = map[uint64]uint64{}
	if len(raw) < segHeader || le.Uint32(raw[0:4]) != segMagic || le.Uint16(raw[4:6]) != segVersion || le.Uint16(raw[6:8]) != 0 ||
		crc32.ChecksumIEEE(raw[0:16]) != le.Uint32(raw[16:20]) {
		return pending, false
	}
	rest := raw[segHeader:]
	for len(rest) >= recHeader {
		plen := uint64(le.Uint32(rest[0:4]))
		if plen == 0 || plen > maxPayloadBytes || plen > uint64(len(rest)-recHeader) {
			return pending, false
		}
		payload := rest[recHeader : recHeader+plen]
		if crc32.ChecksumIEEE(payload) != le.Uint32(rest[4:8]) {
			return pending, false
		}
		switch {
		case payload[0] == kindData && plen >= dataHeader && le.Uint16(payload[2:4]) == 0:
			// rows is the frame's own row count, at byte 12 of the frame.
			var frameRows uint32
			if frame := payload[dataHeader:]; len(frame) >= 16 {
				frameRows = le.Uint32(frame[12:16])
			}
			if le.Uint32(payload[4:8]) != frameRows {
				return pending, false
			}
			if mask := le.Uint64(payload[16:24]); mask != 0 {
				pending[le.Uint64(payload[8:16])] = mask
			}
		case payload[0] == kindAck && plen == ackLen && payload[1] == 0 && le.Uint16(payload[2:4]) == 0:
			seq, node := le.Uint64(payload[8:16]), le.Uint32(payload[4:8])
			if node < 64 && pending[seq]&(1<<node) != 0 {
				if pending[seq] &^= 1 << node; pending[seq] == 0 {
					delete(pending, seq)
				}
			}
		default:
			return pending, false
		}
		rest = rest[recHeader+plen:]
	}
	return pending, len(rest) == 0
}

// FuzzSpoolRecover opens a spool over arbitrary segment bytes. Recovery
// must never panic, must flag exactly the files the oracle cannot parse
// to the end, must hold pending exactly the oracle's intact prefix, and
// must never hand back a frame longer than the file it came from — a
// length field is only ever believed up to the bytes actually present.
func FuzzSpoolRecover(f *testing.F) {
	// Seeds: one 16-record group with five of its records acked behind
	// it, whole, and cut and flipped at points spread over the file.
	srcDir := f.TempDir()
	s, err := Open(Options{Dir: srcDir})
	if err != nil {
		f.Fatal(err)
	}
	group := make([]Entry, 16)
	for i := range group {
		group[i] = Entry{Slot: i, Dests: 0b11, Frame: testFrame(f, int64(i)*100, 2+i%3)}
	}
	if _, err := s.AppendGroup(group); err != nil {
		f.Fatal(err)
	}
	if err := s.AckBatch(pendingSeqs(f, s, 0)[:5], 0); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(srcDir, "spool-00000000.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	// The first record's reserved bytes set under a valid record CRC.
	reserved := append([]byte(nil), raw...)
	reserved[segHeader+recHeader+2] = 1
	binary.LittleEndian.PutUint32(reserved[segHeader+4:], crc32.ChecksumIEEE(reserved[segHeader+recHeader:segHeader+recHeader+int(binary.LittleEndian.Uint32(reserved[segHeader:]))]))
	f.Add(reserved)
	// The first record's rows off by one under a valid record CRC: a
	// record that under-reports its rows would hide what a replica is owed.
	rowsOff := append([]byte(nil), raw...)
	plen := int(binary.LittleEndian.Uint32(rowsOff[segHeader:]))
	payload := rowsOff[segHeader+recHeader : segHeader+recHeader+plen]
	binary.LittleEndian.PutUint32(payload[4:], binary.LittleEndian.Uint32(payload[4:])+1)
	binary.LittleEndian.PutUint32(rowsOff[segHeader+4:], crc32.ChecksumIEEE(payload))
	if _, clean := refRecover(rowsOff); clean {
		f.Fatal("oracle accepts a data record whose rows disagree with its frame")
	}
	f.Add(rowsOff)
	for i := 1; i < 12; i++ {
		p := len(raw) * i / 12
		f.Add(raw[:p])
		flipped := append([]byte(nil), raw...)
		flipped[p] ^= 0xA5
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		s, err := reopenScratch(t, srcDir, seg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		want, clean := refRecover(seg)
		st := s.Stats()
		if st.Corrupt == clean {
			t.Fatalf("corrupt = %v, oracle parsed cleanly = %v", st.Corrupt, clean)
		}
		if st.PendingRecords != len(want) {
			t.Fatalf("%d pending records, oracle has %d", st.PendingRecords, len(want))
		}
		for node := 0; node < 64; node++ {
			var wantSeqs []uint64
			for seq, mask := range want {
				if mask&(1<<uint(node)) != 0 {
					wantSeqs = append(wantSeqs, seq)
				}
			}
			sort.Slice(wantSeqs, func(a, b int) bool { return wantSeqs[a] < wantSeqs[b] })
			recs, err := s.PendingForNode(node, 0)
			if err != nil {
				t.Fatalf("node %d: reload: %v", node, err)
			}
			if len(recs) != len(wantSeqs) {
				t.Fatalf("node %d: %d pending, oracle has %v", node, len(recs), wantSeqs)
			}
			for i, r := range recs {
				if r.Seq != wantSeqs[i] || r.Dests != want[r.Seq] {
					t.Fatalf("node %d: pending[%d] = seq %d mask %b, oracle has seq %d mask %b", node, i, r.Seq, r.Dests, wantSeqs[i], want[wantSeqs[i]])
				}
				if len(r.Frame) > len(seg) {
					t.Fatalf("node %d: seq %d reloaded %d frame bytes from a %d-byte segment", node, r.Seq, len(r.Frame), len(seg))
				}
				if st.NextSeq <= r.Seq {
					t.Fatalf("NextSeq %d not past pending sequence %d", st.NextSeq, r.Seq)
				}
			}
		}
	})
}
