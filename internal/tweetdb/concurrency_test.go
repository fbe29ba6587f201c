package tweetdb

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"geomob/internal/tweet"
)

// mkTweet fabricates a valid record.
func mkTweet(id, user, ts int64) tweet.Tweet {
	return tweet.Tweet{ID: id, UserID: user, TS: ts, Lat: -33.8, Lon: 151.2}
}

// TestScanSurvivesConcurrentCompact: an iterator opened before a Compact
// keeps its catalogue snapshot — the retired segment files must not be
// unlinked from under it. Before deferred garbage collection, the scan
// below failed with a missing-segment read error.
func TestScanSurvivesConcurrentCompact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSegmentRecords(4); err != nil {
		t.Fatal(err)
	}
	var all []tweet.Tweet
	for i := int64(0); i < 40; i++ {
		all = append(all, mkTweet(i, i%7, i*1000))
	}
	if err := s.Append(all); err != nil {
		t.Fatal(err)
	}

	it := s.Scan(Query{})
	if _, ok := it.Next(); !ok {
		t.Fatalf("first record: %v", it.Err())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The pre-compact iterator must still drain its snapshot completely.
	n := 1
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("scan across compact: %v", err)
	}
	if n != len(all) {
		t.Fatalf("scan across compact read %d records, want %d", n, len(all))
	}
	// With the last iterator released, the retired files are gone: only
	// the live catalogue's segments remain on disk.
	liveFiles := map[string]bool{}
	for _, m := range s.Segments() {
		liveFiles[m.File] = true
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".gmseg") && !liveFiles[name] {
			t.Errorf("retired segment %s still on disk after scan release", name)
		}
	}
}

// TestIteratorCloseReclaimsGarbage: abandoning an iterator early via
// Close must also let a concurrent Compact's retired files be reclaimed.
func TestIteratorCloseReclaimsGarbage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSegmentRecords(2); err != nil {
		t.Fatal(err)
	}
	var all []tweet.Tweet
	for i := int64(0); i < 10; i++ {
		all = append(all, mkTweet(i, i, i*1000))
	}
	if err := s.Append(all); err != nil {
		t.Fatal(err)
	}
	it := s.Scan(Query{})
	if _, ok := it.Next(); !ok {
		t.Fatal("no first record")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if _, ok := it.Next(); ok {
		t.Error("closed iterator yielded a record")
	}
	s.mu.Lock()
	garbage := len(s.garbage)
	s.mu.Unlock()
	if garbage != 0 {
		t.Errorf("%d garbage files left after last iterator closed", garbage)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), logName)); err != nil {
		t.Fatal(err)
	}
}

// TestFlushConcurrentWithScanAndCompact drives batch appends against
// concurrent full scans and compactions (run under -race in CI): every
// append must land, every scan must decode cleanly from whatever
// catalogue snapshot it took, and the final store must verify.
func TestFlushConcurrentWithScanAndCompact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSegmentRecords(8); err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 24, 8
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // writer: one append per batch
		defer wg.Done()
		defer close(done)
		id := int64(0)
		for b := 0; b < batches; b++ {
			batch := &tweet.Batch{}
			for i := 0; i < perBatch; i++ {
				batch.Append(mkTweet(id, id%11, id*500))
				id++
			}
			if err := s.AppendBatch(batch); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 2; r++ { // readers: full drains, snapshot-consistent
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Scan(Query{}).ReadAll(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Count(), int64(batches*perBatch); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationBumpsOncePerFlush: every non-empty batch append changes
// the store generation exactly once (one new segment per append at this
// batch size), and an empty append or one holding an invalid record
// changes nothing.
func TestGenerationBumpsOncePerFlush(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{s.Generation(): true}
	id := int64(0)
	for flush := 0; flush < 5; flush++ {
		segsBefore := len(s.Segments())
		batch := &tweet.Batch{}
		for i := 0; i < 10; i++ {
			batch.Append(mkTweet(id, id%3, id*1000))
			id++
		}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Segments()); got != segsBefore+1 {
			t.Fatalf("flush %d wrote %d segments, want exactly 1", flush, got-segsBefore)
		}
		g := s.Generation()
		if seen[g] {
			t.Fatalf("flush %d did not change the generation", flush)
		}
		seen[g] = true
		// Generation is a pure function of the catalogue: reading it
		// again without writes must not move it.
		if s.Generation() != g {
			t.Fatal("generation moved without a write")
		}
	}
	g := s.Generation()
	if err := s.AppendBatch(&tweet.Batch{}); err != nil { // empty append: no-op
		t.Fatal(err)
	}
	if s.Generation() != g {
		t.Fatal("empty flush changed the generation")
	}
	if err := s.AppendBatch(tweet.BatchOf([]tweet.Tweet{{ID: id, UserID: 1, Lat: 999}})); err == nil {
		t.Fatal("an invalid record was appended")
	}
	if s.Generation() != g || s.Count() != id {
		t.Fatalf("rejected append changed the store: count %d, want %d", s.Count(), id)
	}
}
