package live

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"geomob/internal/core"
	"geomob/internal/ring"
	"geomob/internal/tweet"
)

// TestExplainCoverageMatchesFold pins the dry span selection against
// the real one: for every request shape, ExplainCoverage must report
// exactly the accounting FoldPartial records while actually folding —
// the two walk the same selection loop, and this test keeps them from
// drifting apart.
func TestExplainCoverageMatchesFold(t *testing.T) {
	_, sorted := snapCorpus(t, 300, 91)
	agg, err := NewAggregator(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(sorted)); err != nil {
		t.Fatal(err)
	}
	for i, req := range snapRequests(sorted) {
		// Dry first: on a cold aggregator the explain pass must not
		// warm anything the fold would then skip building.
		cov, err := agg.ExplainCoverage(req)
		if err != nil {
			t.Fatalf("req %d: ExplainCoverage: %v", i, err)
		}
		fp, err := agg.FoldPartial(req)
		if err != nil {
			t.Fatalf("req %d: FoldPartial: %v", i, err)
		}
		if !reflect.DeepEqual(cov, fp.Coverage) {
			t.Fatalf("req %d: ExplainCoverage %+v != fold coverage %+v", i, cov, fp.Coverage)
		}
		if cov.Buckets == 0 {
			t.Fatalf("req %d: fold covered no buckets", i)
		}
		// Repeat after the fold warmed the caches: still identical.
		again, err := agg.ExplainCoverage(req)
		if err != nil {
			t.Fatalf("req %d: warm ExplainCoverage: %v", i, err)
		}
		if !reflect.DeepEqual(again, cov) {
			t.Fatalf("req %d: warm ExplainCoverage %+v != cold %+v", i, again, cov)
		}
	}
}

// TestExplainCoverageReadOnly proves the dry pass builds nothing: on a
// freshly ingested ring, ExplainCoverage leaves the bucket build
// counter and every rollup tier untouched.
func TestExplainCoverageReadOnly(t *testing.T) {
	_, sorted := snapCorpus(t, 200, 17)
	agg, err := NewAggregator(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(sorted)); err != nil {
		t.Fatal(err)
	}
	for _, req := range snapRequests(sorted) {
		if _, err := agg.ExplainCoverage(req); err != nil {
			t.Fatalf("ExplainCoverage: %v", err)
		}
	}
	if b := agg.Builds(); b != 0 {
		t.Fatalf("explain pass built %d bucket partials, want 0", b)
	}
	for _, st := range agg.RollupStats() {
		if st.Builds != 0 || st.Groups != 0 {
			t.Fatalf("explain pass touched rollup tier %+v", st)
		}
	}
}

// TestFoldCoverageMerge pins coordinator-side accumulation across
// shard partials, including tier-fold merging by factor.
func TestFoldCoverageMerge(t *testing.T) {
	a := FoldCoverage{
		Buckets:     10,
		TierFolds:   []TierFold{{Factor: 24, Groups: 1, Buckets: 8}},
		FullBuckets: 1, ResidualBuckets: 1, ResidualRecords: 5,
	}
	b := FoldCoverage{
		Buckets:     12,
		TierFolds:   []TierFold{{Factor: 720, Groups: 1, Buckets: 9}, {Factor: 24, Groups: 1, Buckets: 2}},
		FullBuckets: 1, ResidualBuckets: 0, ResidualRecords: 0,
	}
	a.Merge(b)
	want := FoldCoverage{
		Buckets:     22,
		TierFolds:   []TierFold{{Factor: 24, Groups: 2, Buckets: 10}, {Factor: 720, Groups: 1, Buckets: 9}},
		FullBuckets: 2, ResidualBuckets: 1, ResidualRecords: 5,
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Merge = %+v, want %+v", a, want)
	}
	var nilCov *FoldCoverage
	nilCov.Merge(b) // must not panic
}

// TestFoldSlotsCoverageCountsFoldedSlots: a slot-subset fold counts the
// residual records of its own users only, so the coverages of
// complementary slot sets merge to the coverage of the whole ring.
func TestFoldSlotsCoverageCountsFoldedSlots(t *testing.T) {
	all, _ := snapCorpusDays(t, 1500, 91, 30)
	agg, err := NewAggregator(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	// The window's edges are record times, so both cut a bucket holding
	// records and each fold replays residuals.
	times := make([]int64, len(all))
	for i, tw := range all {
		times[i] = tw.TS
	}
	slices.Sort(times)
	req := core.Request{
		Analyses: []core.Analysis{core.AnalysisStats},
		From:     time.UnixMilli(times[len(times)/3]).UTC(),
		To:       time.UnixMilli(times[2*len(times)/3]).UTC(),
	}
	whole, err := agg.FoldSlots(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Coverage.ResidualBuckets != 2 || whole.Coverage.ResidualRecords == 0 {
		t.Fatalf("the window replays %d residual buckets, %d records; want 2 and some", whole.Coverage.ResidualBuckets, whole.Coverage.ResidualRecords)
	}
	var halves [2][]int
	for k := range ring.Slots {
		halves[k%2] = append(halves[k%2], k)
	}
	var merged FoldCoverage
	for _, slots := range halves {
		sp, err := agg.FoldSlots(req, slots)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Coverage.ResidualRecords >= whole.Coverage.ResidualRecords {
			t.Fatalf("slots %v count %d residual records, the whole ring %d", slots, sp.Coverage.ResidualRecords, whole.Coverage.ResidualRecords)
		}
		merged.Merge(sp.Coverage)
	}
	if merged.ResidualRecords != whole.Coverage.ResidualRecords {
		t.Fatalf("the slot halves count %d residual records, the whole ring %d", merged.ResidualRecords, whole.Coverage.ResidualRecords)
	}
}
