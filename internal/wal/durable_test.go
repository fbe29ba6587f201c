package wal

import (
	"bytes"
	"errors"
	"fmt"
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

// TestSpoolRetainBudget: a spool with a directory keeps appended frames
// in memory up to retainBytes and reads the rest back from their
// segment, while one without files keeps them all; either way a read
// returns the appended bytes, and acking releases what was kept.
func TestSpoolRetainBudget(t *testing.T) { eachMode(t, testSpoolRetainBudget) }

func testSpoolRetainBudget(t *testing.T, dir string) {
	s, err := Open(Options{Dir: dir})
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
	got := s.Stats().RetainedBytes
	if dir == "" && got != int64(n*len(frame)) {
		t.Fatalf("a spool without files retained %d bytes, want all %d appended", got, n*len(frame))
	}
	if dir != "" && (got > retainBytes || got < retainBytes-int64(len(frame))) {
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

// TestSpoolWithoutDir: a spool opened without a directory touches no
// file and issues no fsync — the fault seam never runs and
// geomob_wal_fsyncs_total does not move — reports no segments, makes a
// group pending the moment its append returns, and names itself apart
// from every other such spool.
func TestSpoolWithoutDir(t *testing.T) {
	setFault(t, func(op, path string) error {
		t.Errorf("a spool without files ran %s on %s", op, path)
		return errors.New("unexpected file operation")
	})
	fsyncs := mWalFsyncs.Value()
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.SenderID() == "" || s.SenderID() == other.SenderID() {
		t.Fatalf("sender ids %q and %q, want two distinct ones", s.SenderID(), other.SenderID())
	}
	first, err := s.AppendGroup([]Entry{{Slot: 1, Dests: 0b11, Frame: testFrame(t, 1, 2)}, {Slot: 2, Dests: 0b10, Frame: testFrame(t, 2, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingSeqs(t, s, 1); !slices.Equal(got, []uint64{first, first + 1}) {
		t.Fatalf("node 1: pending %v right after the append, want [%d %d]", got, first, first+1)
	}
	if err := s.AckBatch([]uint64{first}, 0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 0 || st.PendingRecords != 2 || st.PendingRows != 3 {
		t.Fatalf("stats %+v, want no segments, 2 records and 3 rows pending", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := mWalFsyncs.Value() - fsyncs; d != 0 {
		t.Fatalf("a spool without files issued %d fsyncs", d)
	}
}

// TestSpoolFailedGroupNeverReplays: a group whose fsync failed is
// cancelled on disk by a synced ack of every destination, so a caller
// that appends the same frames again finds each pending once, and so
// does a reopen. A spool whose cancel cannot be synced refuses appends
// until it is reopened, so however much of the cancel reached the disk,
// no frame is pending twice.
func TestSpoolFailedGroupNeverReplays(t *testing.T) {
	group := []Entry{{Slot: 1, Dests: 0b11, Frame: testFrame(t, 1, 2)}, {Slot: 2, Dests: 0b10, Frame: testFrame(t, 2, 1)}}
	failSync, failCancel := errors.New("fsync failed"), errors.New("cancel fsync failed")
	for _, cancelFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancelFails=%v", cancelFails), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			var ops []string
			setFault(t, func(op, _ string) error {
				ops = append(ops, op)
				switch {
				case op == "sync" && len(ops) == 2: // the first group's, behind its segment's syncdir
					return failSync
				case op == "cancel" && cancelFails:
					return failCancel
				}
				return nil
			})
			fsyncs := mWalFsyncs.Value()
			if _, err := s.AppendGroup(group); !errors.Is(err, failSync) {
				t.Fatalf("append over a failing fsync returned %v", err)
			}
			_, err = s.AppendGroup(group)
			wantOps, wantFsyncs := []string{"syncdir", "sync", "cancel", "sync"}, int64(2)
			if cancelFails {
				if !errors.Is(err, failCancel) {
					t.Fatalf("append after an uncancelled group returned %v, want it refused", err)
				}
				wantOps, wantFsyncs = wantOps[:3], 0
			} else if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ops, wantOps) {
				t.Fatalf("file operations %q, want %q", ops, wantOps)
			}
			if d := mWalFsyncs.Value() - fsyncs; d != wantFsyncs {
				t.Fatalf("%d fsyncs issued, want %d", d, wantFsyncs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fault = func(string, string) error { return nil }

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
				var want [][]byte
				for _, e := range group {
					if e.Dests&(1<<node) != 0 {
						want = append(want, e.Frame)
					}
				}
				if len(recs) > len(want) || !cancelFails && len(recs) < len(want) {
					t.Fatalf("node %d: %d frames pending after reopen, want each of %d once", node, len(recs), len(want))
				}
				for i, r := range recs {
					if !bytes.Equal(r.Frame, want[i]) {
						t.Fatalf("node %d: pending frame %d (seq %d) differs from the appended one", node, i, r.Seq)
					}
				}
			}
			if _, err := s.AppendGroup(group[:1]); err != nil {
				t.Fatalf("append after reopening: %v", err)
			}
		})
	}
}
