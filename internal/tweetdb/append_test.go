package tweetdb

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"geomob/internal/tweet"
)

func TestAppendBatchLeavesArgument(t *testing.T) {
	s := openStore(t)
	if err := s.SetSegmentRecords(700); err != nil {
		t.Fatal(err)
	}
	b := tweet.BatchOf(makeTweets(7, 3000)) // time-ordered, so unsorted by user
	if b.IsSorted() {
		t.Fatal("corpus is already in canonical order; the test proves nothing")
	}
	before := tweet.BatchOf(b.Rows())
	if err := s.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.ID, before.ID) || !slices.Equal(b.UserID, before.UserID) || !slices.Equal(b.TS, before.TS) ||
		!slices.Equal(b.Lat, before.Lat) || !slices.Equal(b.Lon, before.Lon) {
		t.Fatal("AppendBatch reordered or rewrote its argument")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Scan(Query{}).ReadAll()
	if err != nil || len(got) != b.Len() {
		t.Fatalf("scanned %d of %d records: %v", len(got), b.Len(), err)
	}
}

// goldenSegments is the SHA-256 over the segment files, in catalogue
// order, that the encoder of the commit before the pooled-buffer rewrite
// (marshalHeader + encodeColumnsV2(nil, …) + sort.Sort) wrote for
// goldenCorpus. The format has not changed since; a new digest here is a
// format change and needs a version bump, not a new constant.
const goldenSegments = "ab692abdb27b580f945d7293011f548c81cba8cab9177d098ad0d82fb68a809c"

// goldenCorpus has unique ids, so its canonical order never depended on
// how the sort broke ties.
func goldenCorpus() *tweet.Batch {
	return tweet.BatchOf(append(makeTweets(11, 2500), edgeBatch(rand.New(rand.NewPCG(13, 14)), 500).Rows()...))
}

func TestSegmentBytesGolden(t *testing.T) {
	s := openStore(t)
	if err := s.SetSegmentRecords(1024); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(goldenCorpus()); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, m := range s.Segments() {
		raw, err := os.ReadFile(filepath.Join(s.Dir(), m.File))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != m.Bytes {
			t.Errorf("%s: catalogue says %d bytes, file has %d", m.File, m.Bytes, len(raw))
		}
		h.Write(raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSegments {
		t.Fatalf("segment bytes changed: sha256 %s, want %s", got, goldenSegments)
	}
}

// failOps makes the store's file operations fail where bad says so,
// until the returned restore runs.
func failOps(t *testing.T, bad func(op, path string) bool) (restore func()) {
	t.Helper()
	fault = func(op, path string) error {
		if bad(op, path) {
			return errors.New("injected file operation failure")
		}
		return nil
	}
	restore = func() { fault = func(string, string) error { return nil } }
	t.Cleanup(restore)
	return restore
}

// segmentFiles lists the segment files present in the store directory.
func segmentFiles(t *testing.T, s *Store) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(s.Dir(), "seg-*.gmseg"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

func TestAppendFailureRollsBack(t *testing.T) {
	logOp := func(op string) func(string, string) bool {
		return func(o, p string) bool { return o == op && filepath.Base(p) == logName }
	}
	cases := []struct {
		name     string
		records  int
		meta     map[string]string
		bad      func(op, path string) bool
		segments int // segments the successful retry adds
	}{
		{"manifest save, one segment", 3, nil, logOp("append"), 1},
		{"log fsync, one segment", 3, map[string]string{"hwm:a": "7"}, logOp("sync"), 1},
		{"second of two segments", 8, map[string]string{"hwm:a": "7"}, func(op, p string) bool { return op == "write" && filepath.Base(p) == segName(2) }, 2},
		{"meta only", 0, map[string]string{"hwm:a": "7"}, logOp("append"), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			if err := s.SetSegmentRecords(4); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendBatchMeta(tweet.BatchOf(makeTweets(3, 4)), map[string]string{"hwm:a": "1"}); err != nil {
				t.Fatal(err)
			}
			gen, files := s.Generation(), segmentFiles(t, s)
			b := tweet.BatchOf(makeTweets(5, tc.records))

			restore := failOps(t, tc.bad)
			if err := s.AppendBatchMeta(b, tc.meta); err == nil {
				t.Fatal("append succeeded through a failing write")
			}
			restore()
			if s.Count() != 4 || s.Generation() != gen || s.MetaPrefix("hwm:a")["hwm:a"] != "1" {
				t.Fatalf("failed append left count %d, generation moved %v, meta %q", s.Count(), s.Generation() != gen, s.MetaPrefix("hwm:a")["hwm:a"])
			}
			if got := segmentFiles(t, s); !slices.Equal(got, files) {
				t.Fatalf("failed append left segment files %v, want %v", got, files)
			}

			if err := s.AppendBatchMeta(b, tc.meta); err != nil {
				t.Fatalf("retry: %v", err)
			}
			for _, st := range []*Store{s, reopen(t, s)} {
				if got := st.Count(); got != int64(4+tc.records) {
					t.Fatalf("after the retry the store holds %d records, want %d", got, 4+tc.records)
				}
				if got := len(st.Segments()); got != 1+tc.segments {
					t.Fatalf("after the retry the store has %d segments, want %d", got, 1+tc.segments)
				}
				if want := cmp.Or(tc.meta["hwm:a"], "1"); st.MetaPrefix("hwm:a")["hwm:a"] != want {
					t.Fatalf("meta %q, want %q", st.MetaPrefix("hwm:a")["hwm:a"], want)
				}
				if err := st.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	again, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return again
}
