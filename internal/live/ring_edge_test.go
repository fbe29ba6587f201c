package live

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"geomob/internal/core"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// Ring edge cases: bucket indexing far from the epoch (including the
// negative side, where naive integer division truncates toward zero
// instead of flooring), appends landing exactly on bucket boundaries,
// and query windows entirely outside the materialised coverage.

// TestBucketIdxFloorDivision pins the floor-division contract directly:
// for any timestamp, bucket b holds exactly [b·width, (b+1)·width).
func TestBucketIdxFloorDivision(t *testing.T) {
	agg, err := NewAggregator(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	w := int64(time.Hour / time.Millisecond)
	cases := []struct {
		ts   int64
		want int64
	}{
		{0, 0}, {1, 0}, {w - 1, 0}, {w, 1}, {w + 1, 1},
		{-1, -1}, {-w, -1}, {-w - 1, -2}, {-2 * w, -2},
		// Far from the epoch on both sides (centuries away).
		{w * 3_000_000, 3_000_000}, {w*3_000_000 + w - 1, 3_000_000},
		{-w * 3_000_000, -3_000_000}, {-w*3_000_000 - 1, -3_000_001},
		{math.MaxInt64 / w * w, math.MaxInt64 / w},
	}
	for _, c := range cases {
		if got := agg.bucketIdx(c.ts); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
}

// edgeTweets builds a small two-user corpus at the given timestamps,
// alternating between two Sydney-area coordinates so flows and gyration
// are non-trivial.
func edgeTweets(tss []int64) []tweet.Tweet {
	out := make([]tweet.Tweet, 0, len(tss))
	for i, ts := range tss {
		lat, lon := -33.8688, 151.2093
		if i%2 == 1 {
			lat, lon = -33.7, 150.9
		}
		out = append(out, tweet.Tweet{
			ID: int64(i + 1), UserID: int64(1 + i%2), TS: ts, Lat: lat, Lon: lon,
		})
	}
	return out
}

// queryMatchesExecute ingests the records and checks the folded answer of
// every request equals a cold pass, including the empty-dataset cases.
func queryMatchesExecute(t *testing.T, width time.Duration, records []tweet.Tweet, reqs []core.Request) *Aggregator {
	t.Helper()
	agg, err := NewAggregator(Options{BucketWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(records)); err != nil {
		t.Fatal(err)
	}
	sorted := append([]tweet.Tweet(nil), records...)
	sort.Sort(tweet.ByUserTime(sorted))
	study := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})
	for ri, req := range reqs {
		liveRes, liveErr := agg.Query(req)
		ref, refErr := study.Execute(context.Background(), req)
		if refErr != nil {
			// Degenerate inputs (empty windows, corpora too sparse for a
			// fit) must fail identically on both paths: same sentinel for
			// empty datasets, same assembly error otherwise.
			if errors.Is(refErr, core.ErrEmptyDataset) {
				if !errors.Is(liveErr, core.ErrEmptyDataset) {
					t.Fatalf("req %d (%s): live err = %v, want ErrEmptyDataset", ri, req.Key(), liveErr)
				}
			} else if liveErr == nil || liveErr.Error() != refErr.Error() {
				t.Fatalf("req %d (%s): live err = %v, want %v", ri, req.Key(), liveErr, refErr)
			}
			continue
		}
		if liveErr != nil {
			t.Fatalf("req %d (%s): live query: %v", ri, req.Key(), liveErr)
		}
		if !testx.ValuesBitEqual(liveRes, ref) {
			t.Fatalf("req %d (%s): folded result diverges from cold pass", ri, req.Key())
		}
	}
	return agg
}

// TestRingFarFromEpoch: records centuries away from the epoch — on both
// sides — fold exactly. The negative side is the floor-division trap: a
// truncating index would put ts = -1 in bucket 0 and fold it into the
// wrong residual.
func TestRingFarFromEpoch(t *testing.T) {
	w := int64(time.Hour / time.Millisecond)
	for _, base := range []int64{-w * 3_000_000, w * 3_000_000, -5 * w} {
		tss := []int64{
			base - 1, base, base + 1,
			base + w/2, base + w - 1, base + w,
			base + 3*w + 7, base + 5*w,
		}
		records := edgeTweets(tss)
		reqs := []core.Request{
			{},
			{From: time.UnixMilli(base).UTC(), To: time.UnixMilli(base + w).UTC()},
			{From: time.UnixMilli(base - w).UTC(), To: time.UnixMilli(base + 6*w).UTC()},
			{Analyses: []core.Analysis{core.AnalysisStats},
				From: time.UnixMilli(base + 1).UTC(), To: time.UnixMilli(base + 3*w).UTC()},
		}
		queryMatchesExecute(t, time.Hour, records, reqs)
	}
}

// TestRingBucketBoundaryAppends: records landing exactly on bucket
// boundaries belong to the bucket they open ([b·width, (b+1)·width)),
// and window edges aligned to boundaries select exactly the covered
// buckets — no residual double-count, no dropped boundary record.
func TestRingBucketBoundaryAppends(t *testing.T) {
	w := int64(time.Hour / time.Millisecond)
	// Every record sits exactly on a boundary; user 1 and 2 alternate.
	records := edgeTweets([]int64{0, w, 2 * w, 3 * w, 4 * w, 0, w, 2 * w})
	// Distinct ids for the duplicate-timestamp tail.
	for i := 5; i < 8; i++ {
		records[i].ID += 100
	}
	stats := []core.Analysis{core.AnalysisStats}
	reqs := []core.Request{
		{},
		// Window edges exactly on bucket boundaries: fully covered
		// buckets only, the materialised partials answer directly.
		{Analyses: stats, From: time.UnixMilli(w).UTC(), To: time.UnixMilli(3 * w).UTC()},
		// Upper edge one past a boundary: the boundary record at 3w is a
		// one-record residual.
		{Analyses: stats, From: time.UnixMilli(w).UTC(), To: time.UnixMilli(3*w + 1).UTC()},
		// Lower edge one short of a boundary: residual on the left.
		{Analyses: stats, From: time.UnixMilli(w - 1).UTC(), To: time.UnixMilli(4 * w).UTC()},
		// A window that is exactly one boundary instant.
		{Analyses: stats, From: time.UnixMilli(2 * w).UTC(), To: time.UnixMilli(2*w + 1).UTC()},
	}
	agg := queryMatchesExecute(t, time.Hour, records, reqs)

	// The bucket-aligned window folds materialised partials: repeating it
	// must not rebuild anything.
	if _, err := agg.Query(reqs[1]); err != nil {
		t.Fatal(err)
	}
	builds := agg.Builds()
	if _, err := agg.Query(reqs[1]); err != nil {
		t.Fatal(err)
	}
	if got := agg.Builds(); got != builds {
		t.Fatalf("aligned repeat rebuilt %d partials, want 0", got-builds)
	}
}

// TestRingWindowOutsideCoverage: windows entirely before or after the
// materialised buckets must answer ErrEmptyDataset exactly like a cold
// pass over the same (absent) records — never fold a neighbouring
// bucket's data, and never invent state.
func TestRingWindowOutsideCoverage(t *testing.T) {
	w := int64(time.Hour / time.Millisecond)
	records := edgeTweets([]int64{10 * w, 10*w + 5, 11 * w, 12*w - 1})
	reqs := []core.Request{
		// Entirely before coverage.
		{From: time.UnixMilli(0).UTC(), To: time.UnixMilli(9 * w).UTC()},
		// Entirely after coverage.
		{From: time.UnixMilli(13 * w).UTC(), To: time.UnixMilli(20 * w).UTC()},
		// Adjacent but disjoint: ends exactly where coverage starts.
		{From: time.UnixMilli(9 * w).UTC(), To: time.UnixMilli(10 * w).UTC()},
		// Starts exactly where coverage ends.
		{From: time.UnixMilli(12 * w).UTC(), To: time.UnixMilli(13 * w).UTC()},
		// Inside the covered bucket range but between records: the
		// buckets exist, the window slices nothing.
		{From: time.UnixMilli(10*w + 6).UTC(), To: time.UnixMilli(10*w + 7).UTC()},
	}
	agg := queryMatchesExecute(t, time.Hour, records, reqs)

	// WindowTweets agrees: nothing materialises outside coverage.
	if tws := mustWindow(t, agg, 0, 9*w); len(tws) != 0 {
		t.Fatalf("WindowTweets outside coverage: %d records", len(tws))
	}
}
