package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenScript is the history the committed spool segment records: one
// group of four frames to two nodes, then one ack from each node.
func goldenScript(t *testing.T, s *Spool) {
	t.Helper()
	first, err := s.AppendGroup([]Entry{
		{Slot: 0, Dests: 0b11, Frame: testFrame(t, 100, 1)},
		{Slot: 5, Dests: 0b01, Frame: testFrame(t, 200, 2)},
		{Slot: 9, Dests: 0b10, Frame: testFrame(t, 300, 3)},
		{Slot: 15, Dests: 0b11, Frame: testFrame(t, 400, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AckBatch([]uint64{first}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AckBatch([]uint64{first + 3}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRoundTrip reopens a spool over the committed segment —
// written by the spool before the codecs moved onto internal/wire, and
// never to be regenerated — and checks it decodes to goldenScript's
// pending state, then replays the script into an empty spool: the
// segment it writes must be byte-identical, so the record format cannot
// drift unnoticed.
func TestGoldenRoundTrip(t *testing.T) {
	const file = "testdata/golden/spool-00000000.wal"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SENDER"), []byte("golden\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(file)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Corrupt || st.PendingRecords != 4 || st.NextSeq != 5 {
		t.Fatalf("golden spool recovers as %+v, want 4 pending records and NextSeq 5", st)
	}
	for node, want := range [][]Record{
		{{Seq: 2, Slot: 5, Dests: 0b01, Rows: 2, Frame: testFrame(t, 200, 2)}, {Seq: 4, Slot: 15, Dests: 0b01, Rows: 1, Frame: testFrame(t, 400, 1)}},
		{{Seq: 1, Slot: 0, Dests: 0b10, Rows: 1, Frame: testFrame(t, 100, 1)}, {Seq: 3, Slot: 9, Dests: 0b10, Rows: 3, Frame: testFrame(t, 300, 3)}},
	} {
		got, err := s.PendingForNode(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d pending records, want %d", node, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Seq != w.Seq || g.Slot != w.Slot || g.Dests != w.Dests || g.Rows != w.Rows || !bytes.Equal(g.Frame, w.Frame) {
				t.Errorf("node %d record %d = seq %d slot %d mask %b rows %d, want seq %d slot %d mask %b rows %d",
					node, i, g.Seq, g.Slot, g.Dests, g.Rows, w.Seq, w.Slot, w.Dests, w.Rows)
			}
		}
	}

	fresh := t.TempDir()
	w, err := Open(Options{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	goldenScript(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(fresh, filepath.Base(file)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("%s: the script writes %d bytes, not the golden %d", file, len(again), len(raw))
	}
}
