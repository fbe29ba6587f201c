package tweetdb

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"geomob/internal/tweet"
	"geomob/internal/wire"
)

// hourBatch is hour h of an hourly feed: n records an hour apart from the
// hours before it.
func hourBatch(h, n int) *tweet.Batch {
	rows := makeTweets(uint64(h)+100, n)
	for i := range rows {
		rows[i].ID = int64(h*n + i)
		rows[i].TS = 1378000000000 + int64(h)*3_600_000 + int64(i)
	}
	return tweet.BatchOf(rows)
}

func logStat(t *testing.T, s *Store) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(s.Dir(), logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestCommitOrder: an append makes its segments durable, then their
// directory entries, and only then writes and fsyncs the log record that
// names them — so a power loss can never leave a record naming a segment
// whose bytes or name were lost.
func TestCommitOrder(t *testing.T) {
	s := openStore(t)
	if err := s.SetSegmentRecords(4); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(hourBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	var ops []string
	fault = func(op, path string) error {
		ops = append(ops, op+" "+filepath.Base(path))
		return nil
	}
	t.Cleanup(func() { fault = func(string, string) error { return nil } })
	if err := s.AppendBatchMeta(hourBatch(1, 8), map[string]string{"hwm:a": "2"}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"write seg-000001.gmseg", "sync seg-000001.gmseg",
		"write seg-000002.gmseg", "sync seg-000002.gmseg",
		"sync " + filepath.Base(s.Dir()),
		"append " + logName, "sync " + logName,
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("file operations\n got %q\nwant %q", ops, want)
	}
}

// TestAppendCatalogueBytesFlat counts the catalogue bytes an append
// writes: after 1 000 hourly appends the next one adds to the same log
// file exactly what the 10th did, up to the growth of its record's
// varints, where a rewritten catalogue would write all 1 001 entries.
func TestAppendCatalogueBytesFlat(t *testing.T) {
	s := openStore(t)
	appendCost := func(h int) int64 {
		before := logStat(t, s)
		if err := s.AppendBatch(hourBatch(h, 8)); err != nil {
			t.Fatal(err)
		}
		after := logStat(t, s)
		if !os.SameFile(before, after) {
			t.Fatalf("append %d rewrote the log", h)
		}
		return after.Size() - before.Size()
	}
	if err := s.AppendBatch(hourBatch(0, 8)); err != nil {
		t.Fatal(err)
	}
	var tenth, last int64
	for h := 1; h <= 1000; h++ {
		switch {
		case h == 9:
			tenth = appendCost(h)
		case h == 1000:
			last = appendCost(h)
		default:
			if err := s.AppendBatch(hourBatch(h, 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The 1 001st append's sequence numbers and timestamps take at most
	// one more varint byte each than the 10th's.
	if last < tenth || last > tenth+4 {
		t.Fatalf("append 1001 wrote %d catalogue bytes, append 10 wrote %d", last, tenth)
	}
	if got := len(reopen(t, s).Segments()); got != 1001 {
		t.Fatalf("reopened store has %d segments, want 1001", got)
	}
}

// TestLogTornTail: a record cut short by a crash was never acknowledged.
// Open drops it and cuts it from the file, and a retry of its batch
// commits once.
func TestLogTornTail(t *testing.T) {
	s := openStore(t)
	for h := range 2 {
		if err := s.AppendBatchMeta(hourBatch(h, 5), map[string]string{"hwm:a": string(rune('1' + h))}); err != nil {
			t.Fatal(err)
		}
	}
	full := logStat(t, s).Size()
	if err := s.AppendBatchMeta(hourBatch(2, 5), map[string]string{"hwm:a": "3"}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, 9} {
		size := logStat(t, s).Size()
		if err := os.Truncate(filepath.Join(s.Dir(), logName), size-cut); err != nil {
			t.Fatal(err)
		}
		again := reopen(t, s)
		if again.Count() != 10 || again.MetaPrefix("hwm:")["hwm:a"] != "2" || logStat(t, again).Size() != full {
			t.Fatalf("cut %d: reopened store holds %d records, mark %q, a %d-byte log; want 10, 2, %d",
				cut, again.Count(), again.MetaPrefix("hwm:")["hwm:a"], logStat(t, again).Size(), full)
		}
		if err := again.AppendBatchMeta(hourBatch(2, 5), map[string]string{"hwm:a": "3"}); err != nil {
			t.Fatal(err)
		}
		s = reopen(t, again)
		if s.Count() != 15 || s.MetaPrefix("hwm:")["hwm:a"] != "3" || len(s.Segments()) != 3 {
			t.Fatalf("cut %d: after the retry %d records in %d segments, mark %q", cut, s.Count(), len(s.Segments()), s.MetaPrefix("hwm:")["hwm:a"])
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogCorruptRecord: a damaged record with a good one after it is
// corruption, not a torn write, and fails Open; the same damage in the
// last record is a torn write. A sound record that repeats a segment
// fails Open too.
func TestLogCorruptRecord(t *testing.T) {
	s := openStore(t)
	var ends []int64
	for h := range 3 {
		if err := s.AppendBatch(hourBatch(h, 5)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, logStat(t, s).Size())
	}
	path := filepath.Join(s.Dir(), logName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at      int64
		records int64
	}{{ends[0] + 20, -1}, {ends[1] + 20, 10}} {
		raw := slices.Clone(pristine)
		raw[tc.at] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := Open(s.Dir())
		switch {
		case tc.records < 0 && err == nil:
			t.Fatalf("open accepted a log damaged at byte %d with a good record after it", tc.at)
		case tc.records >= 0 && (err != nil || again.Count() != tc.records):
			t.Fatalf("damaged last record: open %v", err)
		}
	}
	// The last record twice over, as a retry would leave it after an
	// append whose failed record stayed in the log: it names its segment
	// twice, which no commit writes.
	if err := os.WriteFile(path, append(slices.Clone(pristine), pristine[ends[1]:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(s.Dir()); err == nil {
		t.Fatal("open accepted a log that names a segment twice")
	}
}

// TestLogCheckpoint: appends that only move a high-water mark grow the
// log but not the catalogue, so the log is rewritten as one record once
// it passes twice that record's size, and replays to the same catalogue.
func TestLogCheckpoint(t *testing.T) {
	s := openStore(t)
	if err := s.AppendBatch(hourBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	rewrites, prev := 0, logStat(t, s)
	for i := range 200 {
		if err := s.AppendBatchMeta(&tweet.Batch{}, map[string]string{"hwm:sender": string(rune('a' + i%26))}); err != nil {
			t.Fatal(err)
		}
		fi := logStat(t, s)
		if !os.SameFile(prev, fi) {
			rewrites++
		}
		if lim := 2 * s.man.checkpointBytes(); fi.Size() > lim {
			t.Fatalf("log of %d bytes past twice its checkpoint's %d", fi.Size(), lim/2)
		}
		prev = fi
	}
	if rewrites == 0 {
		t.Fatal("the log was never checkpointed")
	}
	again := reopen(t, s)
	if again.Count() != 5 || !maps.Equal(again.MetaPrefix(""), s.MetaPrefix("")) || again.man.NextSeq != s.man.NextSeq {
		t.Fatalf("checkpointed log replays to %d records, meta %v", again.Count(), again.MetaPrefix(""))
	}
}

// FuzzStoreLog: replay never panics, and a catalogue it accepts
// survives a checkpoint and a replay unchanged.
func FuzzStoreLog(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.SetSegmentRecords(3); err != nil {
		f.Fatal(err)
	}
	for h := range 3 {
		if err := s.AppendBatchMeta(hourBatch(h, 4), map[string]string{"hwm:a": string(rune('1' + h))}); err != nil {
			f.Fatal(err)
		}
	}
	pristine, err := os.ReadFile(filepath.Join(s.Dir(), logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add(pristine[:len(pristine)-3]) // torn tail
	flipped := slices.Clone(pristine)
	flipped[len(pristine)/2] ^= 0x5a // mid-log bit flip
	f.Add(flipped)
	w := wire.NewWriter(nil) // a checkpoint of the same catalogue
	w.Raw([]byte(logHeader))
	putLogRecord(&w, s.man.NextSeq, s.man.Segments, s.man.Meta)
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, valid, err := replayLog(raw)
		if err != nil {
			return
		}
		if valid > len(raw) {
			t.Fatalf("intact prefix %d past the %d bytes", valid, len(raw))
		}
		w := wire.NewWriter(nil)
		w.Raw([]byte(logHeader))
		putLogRecord(&w, m.NextSeq, m.Segments, m.Meta)
		again, n, err := replayLog(w.Bytes())
		if err != nil || n != w.Len() || again.NextSeq != m.NextSeq || !slices.Equal(again.Segments, m.Segments) ||
			!maps.Equal(again.Meta, m.Meta) && len(m.Meta)+len(again.Meta) > 0 {
			t.Fatalf("checkpoint of an accepted log replays differently: %v", err)
		}
	})
}

// TestCompactFailureRollsBack: a compaction whose checkpoint fails keeps
// the catalogue it started from, in memory and on disk, and removes the
// segment files it wrote.
func TestCompactFailureRollsBack(t *testing.T) {
	s := openStore(t)
	for h := range 3 {
		if err := s.AppendBatch(hourBatch(h, 5)); err != nil {
			t.Fatal(err)
		}
	}
	gen, files := s.Generation(), segmentFiles(t, s)
	restore := failOps(t, func(op, p string) bool { return op == "rename" && filepath.Base(p) == logName })
	if err := s.Compact(); err == nil {
		t.Fatal("compact succeeded through a failing checkpoint")
	}
	restore()
	for _, st := range []*Store{s, reopen(t, s)} {
		if st.Count() != 15 || st.Generation() != gen || !slices.Equal(segmentFiles(t, st), files) {
			t.Fatalf("failed compact left %d records, generation moved %v, files %v", st.Count(), st.Generation() != gen, segmentFiles(t, st))
		}
	}
	if err := s.Compact(); err != nil || s.Count() != 15 || len(s.Segments()) != 1 {
		t.Fatalf("retried compact: %v, %d records in %d segments", err, s.Count(), len(s.Segments()))
	}
}
