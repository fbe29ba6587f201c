package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"
)

// setFault installs f as the spool's file-operation seam for the test.
func setFault(t *testing.T, f func(op, path string) error) {
	t.Helper()
	fault = f
	t.Cleanup(func() { fault = func(string, string) error { return nil } })
}

// TestSpoolCommitOrder: a fresh spool writes SENDER atomically, and a
// new segment's directory entry is fsynced before the first group
// written into it is fsynced and acknowledged — at the first append and
// at every roll.
func TestSpoolCommitOrder(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	setFault(t, func(op, path string) error {
		ops = append(ops, op+" "+filepath.Base(path))
		return nil
	})
	s, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Append(0, 1, testFrame(t, int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	d := filepath.Base(dir)
	want := []string{
		"sender SENDER",
		"syncdir " + d, "sync spool-00000000.wal",
		"syncdir " + d, "sync spool-00000001.wal",
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("file operations\n got %q\nwant %q", ops, want)
	}
}

// TestSpoolPendingOnlyDurable: a record is not pending while its
// group's fsync is in flight, and a group whose fsync failed is never
// pending — not its records, rows or retained bytes — while the spool
// goes on appending behind it.
func TestSpoolPendingOnlyDurable(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(0, 0b11, testFrame(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	first := pendingSeqs(t, s, 0)

	entered, release := make(chan struct{}), make(chan struct{})
	failSync := errors.New("fsync failed")
	hold, fail := true, false
	setFault(t, func(op, _ string) error {
		switch {
		case op != "sync":
		case hold:
			hold = false
			close(entered)
			<-release
		case fail:
			return failSync
		}
		return nil
	})
	group := []Entry{{Slot: 1, Dests: 0b11, Frame: testFrame(t, 2, 3)}, {Slot: 2, Dests: 0b10, Frame: testFrame(t, 3, 1)}}
	done := make(chan error)
	go func() {
		_, err := s.AppendGroup(group)
		done <- err
	}()
	<-entered
	for node := 0; node < 2; node++ {
		if got := pendingSeqs(t, s, node); !slices.Equal(got, first) {
			t.Errorf("node %d: pending %v while the group's fsync is in flight, want %v", node, got, first)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := pendingSeqs(t, s, 1); len(got) != 3 {
		t.Fatalf("node 1: pending %v after the fsync returned, want 3 records", got)
	}
	before := s.Stats()
	rows := [2]int64{s.PendingRowsNode(0), s.PendingRowsNode(1)}

	fail = true
	if _, err := s.AppendGroup(group); !errors.Is(err, failSync) {
		t.Fatalf("append over a failing fsync returned %v", err)
	}
	fail = false
	after := s.Stats()
	if after.PendingRecords != before.PendingRecords || after.PendingRows != before.PendingRows || after.RetainedBytes != before.RetainedBytes {
		t.Fatalf("failed group left stats %+v, want those before it %+v", after, before)
	}
	for node := 0; node < 2; node++ {
		if got := s.PendingRowsNode(node); got != rows[node] {
			t.Errorf("node %d owes %d rows after the failed group, want %d", node, got, rows[node])
		}
	}
	next, err := s.Append(3, 0b10, testFrame(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := pendingSeqs(t, s, 1)
	if len(got) != 4 || got[3] != next {
		t.Fatalf("node 1: pending %v, want the three durable records and %d, not the failed group", got, next)
	}
}

// TestSpoolRetainBudget: appended frames are kept in memory up to
// retainBytes and the rest are read back from their segment; either way
// a read returns the appended bytes, and acking releases what was kept.
func TestSpoolRetainBudget(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frame := testFrame(t, 7, 40000)
	n := retainBytes/len(frame) + 2
	for i := 0; i < n; i++ {
		if _, err := s.Append(i%16, 1, frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().RetainedBytes; got > retainBytes || got < retainBytes-int64(len(frame)) {
		t.Fatalf("retained %d bytes of %d appended, want the budget %d filled and not exceeded", got, n*len(frame), retainBytes)
	}
	recs, err := s.PendingForNode(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	seqs := make([]uint64, n)
	for i, r := range recs {
		if !bytes.Equal(r.Frame, frame) {
			t.Fatalf("record %d of %d: frame differs from the appended one", i, n)
		}
		seqs[i] = r.Seq
	}
	if err := s.AckBatch(seqs, 0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RetainedBytes != 0 || st.PendingRecords != 0 {
		t.Fatalf("after acking everything: %+v, want nothing pending or retained", st)
	}
}

// TestSpoolSegmentCreateFailure: a segment whose creation failed before
// anything was acknowledged in it is removed, so the next append creates
// it again and commits.
func TestSpoolSegmentCreateFailure(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	failDir := errors.New("directory fsync failed")
	setFault(t, func(op, _ string) error {
		if op == "syncdir" {
			return failDir
		}
		return nil
	})
	if _, err := s.Append(0, 1, testFrame(t, 1, 1)); !errors.Is(err, failDir) {
		t.Fatalf("append over a failing directory fsync returned %v", err)
	}
	fault = func(string, string) error { return nil }
	seq, err := s.Append(0, 1, testFrame(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingSeqs(t, s, 0); !slices.Equal(got, []uint64{seq}) {
		t.Fatalf("pending %v after the retried append, want [%d]", got, seq)
	}
}
