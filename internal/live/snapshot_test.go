package live

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
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
	return snapCorpusDays(t, users, seed, 0)
}

// snapCorpusDays is snapCorpus over the first days of the default
// collection window (0: all of it).
func snapCorpusDays(t testing.TB, users int, seed uint64, days int) (all, sorted []tweet.Tweet) {
	t.Helper()
	cfg := synth.DefaultConfig(users, seed, 11)
	if days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, days)
	}
	gen, err := synth.NewGenerator(cfg)
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

// timeRange returns the first and last record time of a corpus.
func timeRange(sorted []tweet.Tweet) (minTS, maxTS int64) {
	minTS, maxTS = sorted[0].TS, sorted[0].TS
	for _, tw := range sorted {
		minTS = min(minTS, tw.TS)
		maxTS = max(maxTS, tw.TS)
	}
	return minTS, maxTS
}

// snapRequests is the request matrix restart tests compare on: the full
// study, single analyses, and a mid-corpus window.
func snapRequests(sorted []tweet.Tweet) []core.Request {
	minTS, maxTS := timeRange(sorted)
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

// sortedUnion returns the canonical sort of the records of every slice.
func sortedUnion(parts ...[]tweet.Tweet) []tweet.Tweet {
	var out []tweet.Tweet
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Sort(tweet.ByUserTime(out))
	return out
}

// hostileRequests are the requests a restored ring answers only by
// reading store-only buckets back: windows whose edges are record times
// strictly inside buckets (residual builds) and a custom radius (the
// record stream itself), all bounded to [lo, hi).
func hostileRequests(sorted []tweet.Tweet, lo, hi int64) (aligned, unaligned []core.Request, custom core.Request) {
	at := func(ms int64) time.Time { return time.UnixMilli(ms).UTC() }
	aligned = []core.Request{
		{From: at(lo), To: at(hi)},
		{Analyses: []core.Analysis{core.AnalysisStats}, From: at(lo), To: at(hi)},
	}
	for _, cut := range []int{3, 7} {
		from, to := unalignedWindow(sorted, cut)
		unaligned = append(unaligned,
			core.Request{Analyses: []core.Analysis{core.AnalysisStats}, From: at(from), To: at(to)},
			core.Request{Analyses: []core.Analysis{core.AnalysisFlows, core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleNational, census.ScaleState}, From: at(from), To: at(to)})
	}
	custom = core.Request{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleState}, Radius: 30_000, From: at(lo), To: at(hi)}
	return aligned, unaligned, custom
}

// unalignedWindow returns a window from the time of the record 1/cut of
// the way through the corpus in time order to just past the record as
// far from the end: both edges lie inside buckets that hold records.
func unalignedWindow(sorted []tweet.Tweet, cut int) (from, to int64) {
	ts := make([]int64, len(sorted))
	for i := range sorted {
		ts[i] = sorted[i].TS
	}
	slices.Sort(ts)
	return ts[len(ts)/cut] + 1, ts[len(ts)-len(ts)/cut] + 1
}

// assertCustomRadius answers a custom-radius request the way the service
// does — a streaming pass over the ring's window — and compares it with
// the same request over the reference records.
func assertCustomRadius(t *testing.T, a *Aggregator, req core.Request, sorted []tweet.Tweet, label string) {
	t.Helper()
	tweets, err := a.WindowTweetsRequest(req)
	if err != nil {
		t.Fatalf("%s: window tweets: %v", label, err)
	}
	got := snapRefs(t, tweets, []core.Request{req})[0]
	if want := snapRefs(t, sorted, []core.Request{req})[0]; !resultsBitEqual(got, want) {
		t.Fatalf("%s: custom-radius answer diverges from cold rescan", label)
	}
}

// TestSnapshotRestartProperty is the restart invariant: ingest through a
// store-backed Ingestor with a mid-stream snapshot commit, append a tail
// after the commit, then boot a fresh ring with Recover. The recovered
// ring must answer every request bit-identically to a cold
// Study.Execute, touching only the manifest tail — never the covered
// segments. Then the paths that read restored buckets back from the
// store — a late append into one, window edges inside them, a custom
// radius — must answer bit-identically too, with ingest running beside
// them, a dry ExplainCoverage must not scan, and a second commit and
// restart must carry it all.
func TestSnapshotRestartProperty(t *testing.T) {
	widths := []time.Duration{time.Hour, 24 * time.Hour, 31 * 24 * time.Hour}
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
			reqs := snapRequests(sorted)

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
			// Materialise the merges, so the commit carries them.
			for _, req := range reqs {
				if _, err := agg.Query(req); err != nil {
					t.Fatal(err)
				}
			}
			// A second commit after more ingest: the incremental path
			// rewrites only the groups the later batches touched.
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
			fullSorted := sortedUnion(full)
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
			if agg2.Ingested() != agg.Ingested() {
				t.Fatalf("recovered ring counts %d records, the ring before the crash %d", agg2.Ingested(), agg.Ingested())
			}
			if agg2.StoreOnlyBuckets() == 0 {
				t.Fatal("no restored bucket is store-only")
			}
			assertAggMatchesRefs(t, agg2, reqs, refs, "recovered ring")
			assertRestartHostile(t, agg2, store, fullSorted, width.Milliseconds(), filepath.Join(dir, "snap"))
		})
	}
}

// assertRestartHostile drives a recovered ring through every reader of
// restored buckets' records, with ingest landing beside them, then
// commits, restarts again and checks the second restart. sorted is what
// the store held at recovery.
func assertRestartHostile(t *testing.T, a *Aggregator, store *tweetdb.Store, sorted []tweet.Tweet, width int64, snapDir string) {
	t.Helper()
	minTS, maxTS := timeRange(sorted)
	lo, hi := minTS, maxTS+1
	ing, err := NewIngestor(store, a, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent ingest lands a year past the window, so no bounded answer
	// moves; its first record goes in first, closing every group the
	// window holds, so dry and real coverage select the same spans.
	rows := sorted
	future := func(k int) tweet.Tweet {
		src := rows[k%len(rows)]
		src.ID, src.TS = 1<<40+int64(k), maxTS+365*dayMs+int64(k)*61_000
		return src
	}
	if err := ing.IngestBatch(tweet.BatchOf([]tweet.Tweet{future(0)})); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ing.IngestBatch(tweet.BatchOf([]tweet.Tweet{future(k)})); err != nil {
				t.Error(err)
				return
			}
			if err := ing.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	aligned, unaligned, custom := hostileRequests(sorted, lo, hi)
	// A dry explain never reads anything back, yet counts the residual
	// records exactly: the real fold's coverage agrees with it.
	for i, req := range unaligned {
		scans := store.ScanCount()
		dry, err := a.ExplainCoverage(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := store.ScanCount(); got != scans {
			t.Fatalf("unaligned req %d: dry ExplainCoverage moved the scan count %d -> %d", i, scans, got)
		}
		fp, err := a.FoldPartial(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dry, fp.Coverage) {
			t.Fatalf("unaligned req %d: dry coverage %+v, fold %+v", i, dry, fp.Coverage)
		}
	}

	// A late append into a restored bucket — a store-only one where one
	// is left: its partial is invalidated and the next fold reads the
	// bucket back, keeping the late row.
	a.mu.Lock()
	in := a.rangeLocked(lo, hi)
	pick := in[len(in)/2]
	for _, idx := range in[len(in)/2:] {
		if a.buckets[idx].stored != nil {
			pick = idx
			break
		}
	}
	a.mu.Unlock()
	late := tweet.Tweet{ID: 1 << 41, UserID: sorted[0].UserID, TS: min(pick*width+width/2, maxTS), Lat: sorted[0].Lat, Lon: sorted[0].Lon}
	if err := ing.IngestBatch(tweet.BatchOf([]tweet.Tweet{late})); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	sorted = sortedUnion(sorted, []tweet.Tweet{late})

	all := append(append([]core.Request(nil), aligned...), unaligned...)
	refs := snapRefs(t, sorted, all)
	assertAggMatchesRefs(t, a, all, refs, "restored ring after late append")
	assertCustomRadius(t, a, custom, sorted, "restored ring")
	if n := a.StoreOnlyBuckets(); n != 0 {
		t.Fatalf("%d buckets still store-only after a custom-radius pass over the whole window", n)
	}

	// Second commit, second restart: nothing left to replay but the
	// ingest still running, and every answer carried.
	snaps, err := OpenSnapshotStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Snapshot(snaps); err != nil {
		t.Fatal(err)
	}
	b, err := NewAggregator(Options{BucketWidth: time.Duration(width) * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	snaps2, err := OpenSnapshotStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Recover(b, store, snaps2, RecoverOpts{})
	if err != nil || st.FullRescan || st.SnapErrors != 0 {
		t.Fatalf("second restart: %+v, %v", st, err)
	}
	assertAggMatchesRefs(t, b, all, refs, "second restart")
	assertCustomRadius(t, b, custom, sorted, "second restart")
}

// TestSnapshotCleanRestartZeroReplay pins the graceful-drain promise: a
// snapshot taken after the final flush makes the next boot pure snapshot
// restore — zero store scans, zero segment decodes, zero WAL-tail work —
// and the panel queried before the commit answers after it with zero
// partial builds, zero rollup merges and zero scans. Only a window whose
// edge cuts a restored bucket reads that bucket back, once.
func TestSnapshotCleanRestartZeroReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	all, sorted := snapCorpus(t, 300, 23)
	dir := t.TempDir()
	store, err := tweetdb.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(Options{BucketWidth: time.Hour})
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
	from, to := unalignedWindow(sorted, 5)
	reqs := append(snapRequests(sorted)[:3], core.Request{
		Analyses: []core.Analysis{core.AnalysisStats},
		From:     time.UnixMilli(from).UTC(),
		To:       time.UnixMilli(to).UTC(),
	})
	panel, unaligned := reqs[:3], reqs[3:]
	refs := snapRefs(t, sorted, reqs)
	assertAggMatchesRefs(t, agg, panel, refs, "pre-commit panel")
	if _, err := ing.Snapshot(snaps); err != nil {
		t.Fatal(err)
	}

	agg2, err := NewAggregator(Options{BucketWidth: time.Hour})
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
	if agg2.Ingested() != agg.Ingested() || agg2.Buckets() != agg.Buckets() {
		t.Fatalf("restored ring: %d records in %d buckets, want %d in %d", agg2.Ingested(), agg2.Buckets(), agg.Ingested(), agg.Buckets())
	}
	if rb := agg2.ResidentBytes(); rb.Records != 0 || rb.Partials == 0 || rb.Rollups == 0 {
		t.Fatalf("restored ring holds %+v, want partials and rollups and no records", rb)
	}
	assertAggMatchesRefs(t, agg2, panel, refs, "zero-replay panel")
	if b := agg2.Builds(); b != 0 {
		t.Fatalf("the panel built %d bucket partials after a covering restore, want 0", b)
	}
	for _, rs := range agg2.RollupStats() {
		if rs.Builds != 0 {
			t.Fatalf("the panel merged rollup groups after a covering restore: %+v", rs)
		}
	}
	if store.ScanCount() != scans0 {
		t.Fatalf("the panel scanned the store %d times", store.ScanCount()-scans0)
	}
	reloads := mRingReloads.Value()
	assertAggMatchesRefs(t, agg2, unaligned, refs[3:], "zero-replay unaligned window")
	if got := store.ScanCount() - scans0; got != 1 {
		t.Fatalf("an unaligned window over a restored ring scanned %d times, want 1", got)
	}
	if got := mRingReloads.Value() - reloads; got != 2 {
		t.Fatalf("an unaligned window read %d buckets back, want its 2 edges", got)
	}
	assertAggMatchesRefs(t, agg2, unaligned, refs[3:], "repeated unaligned window")
	if got := store.ScanCount() - scans0; got != 1 {
		t.Fatalf("a repeated unaligned window scanned again (%d scans)", got)
	}
}

// TestSnapshotIncrementalCommit pins the incremental contract: unchanged
// groups are never rewritten, a no-change commit writes nothing, and
// files a new manifest no longer references are garbage-collected.
func TestSnapshotIncrementalCommit(t *testing.T) {
	all, _ := snapCorpus(t, 200, 31)
	sort.Slice(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	dir := t.TempDir()
	store, err := tweetdb.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(Options{BucketWidth: time.Hour})
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
	if st1.Written == 0 || st1.Written != st1.Files || st1.Buckets != agg.Buckets() {
		t.Fatalf("first commit: %+v, want every file written and all %d buckets", st1, agg.Buckets())
	}
	// Second half arrives time-sorted, so early days stay untouched.
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
	if st2.Written == 0 || st2.Written >= st2.Files {
		t.Fatalf("second commit wrote %d of %d files, want a strict subset", st2.Written, st2.Files)
	}
	// A query merges the closed days and months: their home files change.
	if _, err := agg.Query(core.Request{Analyses: []core.Analysis{core.AnalysisStats}}); err != nil {
		t.Fatal(err)
	}
	st3, err := ing.Snapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Written == 0 {
		t.Fatal("a commit after the rollups merged wrote no file")
	}
	// No changes since: the commit is a no-op.
	st4, err := ing.Snapshot(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if st4.Written != 0 {
		t.Fatalf("no-change commit rewrote %d files", st4.Written)
	}
	// Exactly the manifest's files remain on disk — superseded ones were
	// collected — and the manifest's sizes are theirs.
	entries, err := os.ReadDir(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, bytes := 0, int64(0)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytes += info.Size()
		if strings.HasSuffix(e.Name(), snapSuffix) {
			blobs++
		}
	}
	if blobs != st4.Files || bytes != st4.Bytes {
		t.Fatalf("snapshot dir holds %d files of %d bytes, manifest says %d of %d", blobs, bytes, st4.Files, st4.Bytes)
	}
}

// TestSnapshotExportInjectRoundTrip drives the file round trip: every
// file a capture encodes decodes and restores into an empty ring that
// reproduces every answer bit-identically, and encoding unchanged ring
// content twice yields byte-identical files, so a commit over an
// unchanged group rewrites the same file.
func TestSnapshotExportInjectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all, sorted := snapCorpus(t, 300, 41)
	sh, err := NewShape(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	agg := sh.NewAggregator()
	ing, err := NewIngestor(store, agg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range randomBatches(rng, all, 6) {
		if err := ing.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	reqs := snapRequests(sorted)
	refs := snapRefs(t, sorted, reqs)
	assertAggMatchesRefs(t, agg, reqs, refs, "source ring")
	export := func() [][]byte {
		c, err := agg.Capture()
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, cf := range c.files {
			out = append(out, sh.encodeSnapFile(cf.dirty))
		}
		return out
	}
	stream1, stream2 := export(), export()
	if len(stream1) == 0 || len(stream1) != len(stream2) {
		t.Fatalf("export streams differ in length: %d vs %d", len(stream1), len(stream2))
	}
	for i := range stream1 {
		if string(stream1[i]) != string(stream2[i]) {
			t.Fatalf("export file %d not deterministic across runs", i)
		}
	}
	// A restore moves the process-wide ring series with the aggregator's
	// own counters: /metrics and /healthz must agree after a restart.
	var files []*snapFile
	merges := 0
	for i, blob := range stream1 {
		f, err := sh.decodeSnapFile(blob)
		if err != nil {
			t.Fatalf("decode file %d: %v", i, err)
		}
		merges += len(f.parts)
		n, _ := f.buckets()
		merges -= n
		files = append(files, f)
	}
	if merges == 0 {
		t.Fatal("the capture carried no rollup merge")
	}
	var covered []string
	for _, m := range store.Segments() {
		covered = append(covered, m.File)
	}
	dst := sh.NewAggregator()
	before := mRingRecords.Value()
	dst.restore(files, nil, &restoreOrigin{store: store, files: covered})
	if got := mRingRecords.Value() - before; got != int64(len(all)) {
		t.Fatalf("geomob_ring_records_total advanced by %d, the files hold %d", got, len(all))
	}
	if dst.Ingested() != int64(len(all)) {
		t.Fatalf("restored ring ingested %d records, want %d", dst.Ingested(), len(all))
	}
	assertAggMatchesRefs(t, dst, reqs, refs, "restored ring")
	if rs := dst.RollupStats(); rs[0].Builds != 0 || rs[1].Builds != 0 {
		t.Fatalf("the restored ring merged rollup groups again: %+v", rs)
	}
	if got := mustWindow(t, dst, math.MinInt64, math.MaxInt64); !reflect.DeepEqual(got, sorted) {
		t.Fatal("records read back from the store differ from the ingested ones")
	}
}
