package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"geomob/internal/tweet"
)

// testFrame builds a small valid binary batch frame whose rows are
// recognisable by base id.
func testFrame(t testing.TB, base int64, rows int) []byte {
	t.Helper()
	tweets := make([]tweet.Tweet, rows)
	for i := range tweets {
		tweets[i] = tweet.Tweet{
			ID: base + int64(i), UserID: base, TS: 1378000000000 + base*1000 + int64(i),
			Lat: -33.8, Lon: 151.2,
		}
	}
	frame, err := tweet.AppendFrame(nil, tweet.BatchOf(tweets))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func pendingSeqs(t testing.TB, s *Spool, node int) []uint64 {
	t.Helper()
	recs, err := s.PendingForNode(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	return seqs
}

func TestSpoolRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sender := s.SenderID()
	if sender == "" {
		t.Fatal("empty sender id")
	}
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, err := s.Append(i, 0b11, testFrame(t, int64(i)*100, 4))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if seqs[0] >= seqs[1] || seqs[1] >= seqs[2] {
		t.Fatalf("sequence numbers not monotone: %v", seqs)
	}
	if got := s.PendingRowsNode(0); got != 12 {
		t.Fatalf("node 0 pending rows = %d, want 12", got)
	}
	if got := s.PendingRowsSlotNode(1, 2); got != 4 {
		t.Fatalf("node 1 slot 2 pending rows = %d, want 4", got)
	}

	// Ack node 0 for everything; node 1 stays owed.
	for _, seq := range seqs {
		if err := s.AckBatch([]uint64{seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := pendingSeqs(t, s, 0); len(got) != 0 {
		t.Fatalf("node 0 still pending %v after acks", got)
	}
	if got := pendingSeqs(t, s, 1); len(got) != 3 {
		t.Fatalf("node 1 pending %v, want all three", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: node 1's debt and the sender identity must survive.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.SenderID() != sender {
		t.Fatalf("sender changed across reopen: %q vs %q", s2.SenderID(), sender)
	}
	recs, err := s2.PendingForNode(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d pending records for node 1, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != seqs[i] || r.Slot != i || r.Rows != 4 {
			t.Fatalf("recovered record %d = %+v, want seq %d slot %d rows 4", i, r, seqs[i], i)
		}
		if tweet.FrameRows(r.Frame) != 4 {
			t.Fatalf("recovered frame %d has %d rows", i, tweet.FrameRows(r.Frame))
		}
	}
	for _, seq := range seqs {
		if err := s2.AckBatch([]uint64{seq}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Stats(); st.PendingRecords != 0 {
		t.Fatalf("pending records = %d after full ack", st.PendingRecords)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A fully-drained spool must never reuse sequence numbers: reused
	// seqs would be silently deduplicated by shards.
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s3.Append(0, 0b1, testFrame(t, 900, 2))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= seqs[2] {
		t.Fatalf("seq %d reused after drain (max issued was %d)", seq, seqs[2])
	}
	s3.Close()
}

// TestSpoolPendingWindow: a read returns the lowest max records still
// owed, so a lane that acks its drain reads the next one.
func TestSpoolPendingWindow(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seqs []uint64
	for i := 0; i < 6; i++ {
		seq, err := s.Append(0, 0b1, testFrame(t, int64(i)*10, 1))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if err := s.AckBatch(seqs[:2], 0); err != nil {
		t.Fatal(err)
	}
	recs, err := s.PendingForNode(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != seqs[2] || recs[2].Seq != seqs[4] {
		t.Fatalf("window after acking %v, max=3, returned %+v", seqs[:2], recs)
	}
}

// TestSpoolSegmentReclaim: tiny segments roll, and fully-acked
// segments are unlinked — except the highest, which carries the
// sequence floor.
func TestSpoolSegmentReclaim(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 12; i++ {
		seq, err := s.Append(0, 0b1, testFrame(t, int64(i)*10, 3))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	before := countSegments(t, dir)
	if before < 3 {
		t.Fatalf("expected multiple segments from 256-byte roll threshold, got %d", before)
	}
	for _, seq := range seqs {
		if err := s.AckBatch([]uint64{seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := countSegments(t, dir)
	if after >= before {
		t.Fatalf("no segments reclaimed: %d before, %d after full ack", before, after)
	}
	// Reopen after drain: nothing pending, sequencing continues upward.
	s2, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.PendingRecords != 0 || st.Corrupt {
		t.Fatalf("reopened stats = %+v, want clean and empty", st)
	}
	seq, err := s2.Append(0, 0b1, testFrame(t, 999, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= seqs[len(seqs)-1] {
		t.Fatalf("seq %d not above previous max %d", seq, seqs[len(seqs)-1])
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "spool-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestSpoolConcurrentAppend exercises the group-commit path: parallel
// appenders must each get a unique sequence number and every record
// must survive a reopen.
func TestSpoolConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 16
	frames := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		frames[w] = make([][]byte, per)
		for i := 0; i < per; i++ {
			frames[w][i] = testFrame(t, int64(w*1000+i), 1)
		}
	}
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := s.Append(w%8, 0b1, frames[w][i])
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if seen[seq] {
					errs <- fmt.Errorf("duplicate seq %d", seq)
				}
				seen[seq] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(pendingSeqs(t, s2, 0)); got != workers*per {
		t.Fatalf("recovered %d records, want %d", got, workers*per)
	}
}

// TestSpoolAppendGroup: a group is one fsync and one pass through the
// append histogram however many frames it carries, while every frame
// stays its own record — own contiguous sequence, slot, mask and row
// count — and a drain's acks retire them together.
func TestSpoolAppendGroup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	group := make([]Entry, 16)
	for i := range group {
		group[i] = Entry{Slot: i, Dests: 0b01 << uint(i%2), Frame: testFrame(t, int64(i), 1+i%3)}
	}
	fsyncs, appends := mWalFsyncs.Value(), mWalAppends.Value()
	first, err := s.AppendGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	if df, da := mWalFsyncs.Value()-fsyncs, mWalAppends.Value()-appends; df != 1 || da != 16 {
		t.Fatalf("group of 16 cost %d fsyncs and counted %d appends, want 1 and 16", df, da)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for node := 0; node < 2; node++ {
		recs, err := s.PendingForNode(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 8 {
			t.Fatalf("node %d recovered %d records, want 8", node, len(recs))
		}
		for j, r := range recs {
			i := 2*j + node
			if r.Seq != first+uint64(i) || r.Slot != i || r.Dests != group[i].Dests || r.Rows != 1+i%3 || !bytes.Equal(r.Frame, group[i].Frame) {
				t.Fatalf("node %d record %d = seq %d slot %d mask %b rows %d, want entry %d of the group (seq %d)", node, j, r.Seq, r.Slot, r.Dests, r.Rows, i, first+uint64(i))
			}
		}
		if got := s.PendingRowsSlotNode(node, 2+node); got != int64(1+(2+node)%3) {
			t.Fatalf("node %d slot %d owes %d rows", node, 2+node, got)
		}
		if err := s.AckBatch(pendingSeqs(t, s, node), node); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PendingRecords != 0 || st.NextSeq != first+16 {
		t.Fatalf("after acking both nodes: %d pending, NextSeq %d, want 0 and %d", st.PendingRecords, st.NextSeq, first+16)
	}
}

func TestSpoolRejectsBadArgs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(0, 0, testFrame(t, 0, 1)); err == nil {
		t.Error("empty destination mask accepted")
	}
	if _, err := s.Append(300, 1, testFrame(t, 0, 1)); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := s.AckBatch([]uint64{1}, MaxNodes); err == nil {
		t.Error("out-of-range node accepted")
	}
	// One bad entry rejects its whole group before anything is written.
	ok := Entry{Slot: 1, Dests: 1, Frame: testFrame(t, 0, 1)}
	for name, group := range map[string][]Entry{
		"empty group":         nil,
		"empty mask in group": {ok, {Slot: 2, Frame: ok.Frame}},
		"bad slot in group":   {ok, {Slot: 300, Dests: 1, Frame: ok.Frame}},
	} {
		if _, err := s.AppendGroup(group); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if st := s.Stats(); st.PendingRecords != 0 || st.NextSeq != 1 {
		t.Errorf("rejected appends left %d pending records and NextSeq %d", st.PendingRecords, st.NextSeq)
	}
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestSpoolDirLayout pins the on-disk names other tooling greps for.
func TestSpoolDirLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(0, 1, testFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "SENDER")); err != nil {
		t.Errorf("SENDER file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spool-00000000.wal")); err != nil {
		t.Errorf("first segment missing: %v", err)
	}
}

// TestSpoolParentFormatReplays opens a spool directory written by the
// commit before group appends existed (three single appends to slots
// 4–6 owed to nodes 0 and 1, then node 0's ack of the first): the
// on-disk layout did not change, so it must replay as is, take a group
// behind the old records, and drain.
func TestSpoolParentFormatReplays(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"SENDER", "spool-00000000.wal"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "pr13-spool", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Corrupt || st.NextSeq != 4 {
		t.Fatalf("reopened parent spool: corrupt=%v NextSeq=%d, want clean and 4", st.Corrupt, st.NextSeq)
	}
	if got := fmt.Sprint(pendingSeqs(t, s, 0), pendingSeqs(t, s, 1)); got != "[2 3] [1 2 3]" {
		t.Fatalf("pending for nodes 0 and 1 = %s, want [2 3] [1 2 3]", got)
	}
	recs, err := s.PendingForNode(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		var b tweet.Batch
		if err := tweet.NewBatchReader(bytes.NewReader(r.Frame), 0).Read(&b); err != nil {
			t.Fatalf("seq %d: frame does not decode: %v", r.Seq, err)
		}
		if r.Slot != 4+i || r.Rows != 2 || b.Len() != 2 || b.Row(0).UserID != int64(100+i) {
			t.Fatalf("seq %d: slot %d rows %d first user %d, want slot %d, 2 rows of user %d", r.Seq, r.Slot, r.Rows, b.Row(0).UserID, 4+i, 100+i)
		}
	}
	first, err := s.AppendGroup([]Entry{
		{Slot: 1, Dests: 0b11, Frame: testFrame(t, 900, 1)},
		{Slot: 2, Dests: 0b10, Frame: testFrame(t, 901, 1)},
	})
	if err != nil || first != 4 {
		t.Fatalf("group after replay: first seq %d, err %v; want 4", first, err)
	}
	for node := 0; node < 2; node++ {
		if err := s.AckBatch(pendingSeqs(t, s, node), node); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PendingRecords != 0 || st.NextSeq != 6 {
		t.Fatalf("after draining: %d pending, NextSeq %d; want 0 and 6", st.PendingRecords, st.NextSeq)
	}
}
