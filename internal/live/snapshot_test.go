package live

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/synth"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// snapCorpus generates a deterministic corpus and its canonical sort.
// Coordinates are pre-quantised to the microdegree grid, matching real
// feed data (and mobgen): restart exactness is defined over store
// round-trips, and the storage codec quantises (DESIGN.md §10).
func snapCorpus(t testing.TB, users int, seed uint64) (all, sorted []tweet.Tweet) {
	t.Helper()
	gen, err := synth.NewGenerator(synth.DefaultConfig(users, seed, 11))
	if err != nil {
		t.Fatal(err)
	}
	all, err = gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		all[i].Lat = tweet.DegreesFromMicro(tweet.Microdegrees(all[i].Lat))
		all[i].Lon = tweet.DegreesFromMicro(tweet.Microdegrees(all[i].Lon))
	}
	sorted = append([]tweet.Tweet(nil), all...)
	sort.Sort(tweet.ByUserTime(sorted))
	return all, sorted
}

// snapRequests is the request matrix restart tests compare on: the full
// study, single analyses, and a mid-corpus window.
func snapRequests(sorted []tweet.Tweet) []core.Request {
	minTS, maxTS := sorted[0].TS, sorted[0].TS
	for _, tw := range sorted {
		minTS = min(minTS, tw.TS)
		maxTS = max(maxTS, tw.TS)
	}
	span := maxTS - minTS
	return []core.Request{
		{},
		{Analyses: []core.Analysis{core.AnalysisStats}},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}},
		{
			Analyses: []core.Analysis{core.AnalysisStats},
			From:     time.UnixMilli(minTS + span/5).UTC(),
			To:       time.UnixMilli(maxTS - span/5).UTC(),
		},
	}
}

// snapRefs cold-executes the request matrix over the sorted corpus.
func snapRefs(t testing.TB, sorted []tweet.Tweet, reqs []core.Request) []*core.Result {
	t.Helper()
	study := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})
	refs := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		res, err := study.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("ref req %d (%s): %v", i, req.Key(), err)
		}
		refs[i] = res
	}
	return refs
}

// assertAggMatchesRefs queries the ring for every request and requires
// bit-identical results.
func assertAggMatchesRefs(t *testing.T, a *Aggregator, reqs []core.Request, refs []*core.Result, label string) {
	t.Helper()
	for i, req := range reqs {
		res, err := a.Query(req)
		if err != nil {
			t.Fatalf("%s: req %d (%s): %v", label, i, req.Key(), err)
		}
		if !resultsBitEqual(res, refs[i]) {
			t.Fatalf("%s: req %d (%s): result diverges from cold rescan", label, i, req.Key())
		}
	}
}

// TestSnapshotRestartProperty is the restart invariant: ingest through a
// store-backed Ingestor with a mid-stream snapshot commit, append a tail
// after the commit, then boot a fresh ring with Recover. The recovered
// ring must answer every request bit-identically to a cold
// Study.Execute, touching only the manifest tail — never the covered
// segments.
func TestSnapshotRestartProperty(t *testing.T) {
	widths := []time.Duration{24 * time.Hour, 31 * 24 * time.Hour}
	for _, width := range widths {
		width := width
		t.Run(width.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(width)))
			all, sorted := snapCorpus(t, 400, 21)
			dir := t.TempDir()
			store, err := tweetdb.Open(filepath.Join(dir, "store"))
			if err != nil {
				t.Fatal(err)
			}
			agg, err := NewAggregator(Options{BucketWidth: width})
			if err != nil {
				t.Fatal(err)
			}
			ing, err := NewIngestor(store, agg, 512)
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
			if err != nil {
				t.Fatal(err)
			}

			batches := randomBatches(rng, all, 9)
			cutAt := len(batches) / 2
			for bi, batch := range batches {
				if err := ing.IngestBatch(tweet.BatchOf(batch)); err != nil {
					t.Fatal(err)
				}
				if bi == cutAt {
					if err := ing.Flush(); err != nil {
						t.Fatal(err)
					}
					if _, err := ing.Snapshot(snaps); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ing.Flush(); err != nil {
				t.Fatal(err)
			}
			// A second commit after more ingest: the incremental path
			// rewrites only buckets the tail batches touched.
			if _, err := ing.Snapshot(snaps); err != nil {
				t.Fatal(err)
			}
			// Tail beyond the last commit, replayed from the store at boot.
			tailBatches := randomBatches(rng, all[:len(all)/4], 3)
			for _, batch := range tailBatches {
				if err := ing.IngestBatch(tweet.BatchOf(batch)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ing.Flush(); err != nil {
				t.Fatal(err)
			}

			// The reference corpus is what the store now holds: all plus the
			// replayed quarter.
			full := append([]tweet.Tweet(nil), all...)
			for _, batch := range tailBatches {
				full = append(full, batch...)
			}
			fullSorted := append([]tweet.Tweet(nil), full...)
			sort.Sort(tweet.ByUserTime(fullSorted))
			reqs := snapRequests(sorted)
			refs := snapRefs(t, fullSorted, reqs)
			assertAggMatchesRefs(t, agg, reqs, refs, "pre-restart ring")

			// Restart: fresh ring, reopened snapshot dir, same store.
			agg2, err := NewAggregator(Options{BucketWidth: width})
			if err != nil {
				t.Fatal(err)
			}
			snaps2, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
			if err != nil {
				t.Fatal(err)
			}
			loads0, scans0 := store.SegmentLoads(), store.ScanCount()
			st, err := Recover(agg2, store, snaps2, RecoverOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if st.FullRescan {
				t.Fatalf("recovery fell back to a full rescan: %+v", st)
			}
			if st.Restored == 0 {
				t.Fatalf("recovery restored no buckets: %+v", st)
			}
			if st.SnapErrors != 0 || st.Backfilled != 0 {
				t.Fatalf("clean snapshot recovery reported errors: %+v", st)
			}
			if st.TailSegments == 0 {
				t.Fatalf("expected a manifest tail to replay: %+v", st)
			}
			if got := store.SegmentLoads() - loads0; got != int64(st.TailSegments) {
				t.Fatalf("recovery decoded %d segments, want exactly the %d tail segments", got, st.TailSegments)
			}
			if store.ScanCount()-scans0 != 1 {
				t.Fatalf("recovery started %d scans, want 1 (tail only)", store.ScanCount()-scans0)
			}
			assertAggMatchesRefs(t, agg2, reqs, refs, "recovered ring")
		})
	}
}

// TestSnapshotCleanRestartZeroReplay pins the graceful-drain promise: a
// snapshot taken after the final flush makes the next boot pure snapshot
// restore — zero store scans, zero segment decodes, zero WAL-tail work.
func TestSnapshotCleanRestartZeroReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	all, sorted := snapCorpus(t, 300, 23)
	dir := t.TempDir()
	store, err := tweetdb.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(Options{BucketWidth: 31 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(store, agg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range randomBatches(rng, all, 5) {
		if err := ing.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Snapshot(snaps); err != nil {
		t.Fatal(err)
	}

	agg2, err := NewAggregator(Options{BucketWidth: 31 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	snaps2, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	loads0, scans0 := store.SegmentLoads(), store.ScanCount()
	st, err := Recover(agg2, store, snaps2, RecoverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRescan || st.Backfilled != 0 || st.SnapErrors != 0 || st.TailSegments != 0 || st.TailRecords != 0 {
		t.Fatalf("clean restart did store work: %+v", st)
	}
	if store.SegmentLoads() != loads0 || store.ScanCount() != scans0 {
		t.Fatalf("clean restart touched the store: loads %d→%d scans %d→%d",
			loads0, store.SegmentLoads(), scans0, store.ScanCount())
	}
	reqs := snapRequests(sorted)
	assertAggMatchesRefs(t, agg2, reqs, snapRefs(t, sorted, reqs), "zero-replay ring")
}

// TestSnapshotIncrementalCommit pins the incremental contract: unchanged
// buckets are never rewritten, a no-change commit writes nothing, and
// files a new manifest no longer references are garbage-collected.
func TestSnapshotIncrementalCommit(t *testing.T) {
	all, _ := snapCorpus(t, 200, 31)
	sort.Slice(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	dir := t.TempDir()
	store, err := tweetdb.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(Options{BucketWidth: 31 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(store, agg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	// First half: everything dirty, everything written.
	if err := ing.IngestBatch(tweet.BatchOf(all[:len(all)/2])); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st1, err := ing.Snapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Written == 0 || st1.Written != st1.Buckets {
		t.Fatalf("first commit wrote %d of %d buckets, want all", st1.Written, st1.Buckets)
	}
	// Second half arrives time-sorted, so early buckets stay untouched.
	if err := ing.IngestBatch(tweet.BatchOf(all[len(all)/2:])); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st2, err := ing.Snapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Written == 0 || st2.Written >= st2.Buckets {
		t.Fatalf("second commit wrote %d of %d buckets, want a strict subset", st2.Written, st2.Buckets)
	}
	// No changes since: the commit is a no-op.
	st3, err := ing.Snapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Written != 0 {
		t.Fatalf("no-change commit rewrote %d buckets", st3.Written)
	}
	// Exactly the manifest's files remain on disk — superseded revisions
	// were collected.
	entries, err := os.ReadDir(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	blobs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), snapSuffix) {
			blobs++
		}
	}
	if blobs != st2.Buckets {
		t.Fatalf("snapshot dir holds %d blob files, manifest references %d", blobs, st2.Buckets)
	}
}

// TestSnapshotExportInjectRoundTrip drives the bucket blob round trip:
// every bucket a capture encodes decodes and restores into an empty ring
// that reproduces every answer bit-identically, and encoding unchanged
// ring content twice yields byte-identical blobs, so a commit over an
// unchanged bucket rewrites the same file.
func TestSnapshotExportInjectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all, sorted := snapCorpus(t, 300, 41)
	sh, err := NewShape(Options{BucketWidth: 31 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	agg := sh.NewAggregator()
	for _, batch := range randomBatches(rng, all, 6) {
		if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	export := func() [][]byte {
		c := agg.Capture()
		var out [][]byte
		for i := range c.dirty {
			out = append(out, encodeBucketBlob(c.shapeHash, c.width, c.slots, &c.dirty[i]))
		}
		return out
	}
	stream1, stream2 := export(), export()
	if len(stream1) == 0 || len(stream1) != len(stream2) {
		t.Fatalf("export streams differ in length: %d vs %d", len(stream1), len(stream2))
	}
	for i := range stream1 {
		if string(stream1[i]) != string(stream2[i]) {
			t.Fatalf("export frame %d not deterministic across runs", i)
		}
	}
	// A restore moves the process-wide ring series with the aggregator's
	// own counters: /metrics and /healthz must agree after a restart.
	dst := sh.NewAggregator()
	for i, blob := range stream1 {
		bs, err := sh.decodeBucketSnapshot(blob)
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		n, before := int64(bs.Count()), mRingRecords.Value()
		dst.restoreBucket(bs)
		if got := mRingRecords.Value() - before; got != n {
			t.Fatalf("frame %d: geomob_ring_records_total advanced by %d, blob holds %d", i, got, n)
		}
	}
	reqs := snapRequests(sorted)
	assertAggMatchesRefs(t, dst, reqs, snapRefs(t, sorted, reqs), "restored ring")
	if dst.Ingested() != int64(len(all)) {
		t.Fatalf("restored ring ingested %d records, want %d", dst.Ingested(), len(all))
	}
}
