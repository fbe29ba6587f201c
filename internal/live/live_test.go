package live

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Test fixtures: national-scale city centres to fabricate tweets at.
var (
	nationalRS = t0()
	sydneyPt   = mustCity(nationalRS, "Sydney")
	melbourne  = mustCity(nationalRS, "Melbourne")
)

func t0() census.RegionSet {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		panic(err)
	}
	return rs
}

func mustCity(rs census.RegionSet, name string) (p [2]float64) {
	for _, a := range rs.Areas {
		if a.Name == name {
			return [2]float64{a.Center.Lat, a.Center.Lon}
		}
	}
	panic("unknown city " + name)
}

func tw(id, user, ts int64, at [2]float64) tweet.Tweet {
	return tweet.Tweet{ID: id, UserID: user, TS: ts, Lat: at[0], Lon: at[1]}
}

const hourMS = int64(time.Hour / time.Millisecond)

// mustWindow is WindowTweets on a ring whose reads cannot fail.
func mustWindow(t testing.TB, a *Aggregator, lo, hi int64) []tweet.Tweet {
	t.Helper()
	out, err := a.WindowTweets(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hourlyAgg builds an aggregator with 1-hour buckets.
func hourlyAgg(t *testing.T, opts Options) *Aggregator {
	t.Helper()
	opts.BucketWidth = time.Hour
	a, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fourBuckets ingests two users moving Sydney→Melbourne across four
// hourly buckets.
func fourBuckets(t *testing.T, a *Aggregator) {
	t.Helper()
	batch := []tweet.Tweet{
		tw(1, 10, 0*hourMS+5, sydneyPt),
		tw(2, 10, 1*hourMS+5, sydneyPt),
		tw(3, 10, 2*hourMS+5, melbourne),
		tw(4, 20, 0*hourMS+10, melbourne),
		tw(5, 20, 3*hourMS+10, sydneyPt),
	}
	if err := a.IngestBatch(tweet.BatchOf(batch)); err != nil {
		t.Fatal(err)
	}
}

func TestIngestInvalidatesOnlyLandedBuckets(t *testing.T) {
	a := hourlyAgg(t, Options{})
	fourBuckets(t, a)
	if got := a.Buckets(); got != 4 {
		t.Fatalf("buckets = %d, want 4", got)
	}
	full := core.Request{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}}
	if _, err := a.Query(full); err != nil {
		t.Fatal(err)
	}
	if got := a.Builds(); got != 4 {
		t.Fatalf("builds after first full query = %d, want 4", got)
	}
	// A repeat query folds the cached partials: no rebuilds.
	if _, err := a.Query(full); err != nil {
		t.Fatal(err)
	}
	if got := a.Builds(); got != 4 {
		t.Fatalf("builds after repeat query = %d, want 4", got)
	}
	// An ingest landing in bucket 1 invalidates exactly that bucket.
	if err := a.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw(6, 30, 1*hourMS+30, sydneyPt)})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query(full); err != nil {
		t.Fatal(err)
	}
	if got := a.Builds(); got != 5 {
		t.Fatalf("builds after ingest into one bucket = %d, want 5 (one rebuild)", got)
	}
}

func TestCoverageKeyMovesOnlyForTouchedWindows(t *testing.T) {
	a := hourlyAgg(t, Options{})
	fourBuckets(t, a)
	early := core.Request{
		Analyses: []core.Analysis{core.AnalysisStats},
		From:     time.UnixMilli(0).UTC().Add(time.Millisecond), // non-zero: bounded below
		To:       time.UnixMilli(2 * hourMS).UTC(),
	}
	late := core.Request{
		Analyses: []core.Analysis{core.AnalysisStats},
		From:     time.UnixMilli(2 * hourMS).UTC(),
		To:       time.UnixMilli(4 * hourMS).UTC(),
	}
	kEarly1, err := a.CoverageKeyRequest(early)
	if err != nil {
		t.Fatal(err)
	}
	kLate1, err := a.CoverageKeyRequest(late)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest into hour 3: the late window's key must move, the early one
	// must not — this is what lets a service cache reuse unchanged
	// buckets across store generations.
	if err := a.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw(7, 40, 3*hourMS+40, melbourne)})); err != nil {
		t.Fatal(err)
	}
	kEarly2, _ := a.CoverageKeyRequest(early)
	kLate2, _ := a.CoverageKeyRequest(late)
	if kEarly1 != kEarly2 {
		t.Errorf("early window key moved on an ingest outside it: %s -> %s", kEarly1, kEarly2)
	}
	if kLate1 == kLate2 {
		t.Errorf("late window key did not move on an ingest inside it")
	}
	// An unbounded window covers every bucket: any ingest moves it.
	kAll1, _ := a.CoverageKeyRequest(core.Request{Analyses: []core.Analysis{core.AnalysisStats}})
	if err := a.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw(8, 50, 0*hourMS+50, sydneyPt)})); err != nil {
		t.Fatal(err)
	}
	kAll2, _ := a.CoverageKeyRequest(core.Request{Analyses: []core.Analysis{core.AnalysisStats}})
	if kAll1 == kAll2 {
		t.Errorf("unbounded window key did not move on ingest")
	}
	// A custom radius is keyed like every shape: a late append into any
	// bucket its window covers moves the key.
	custom := core.Request{
		Analyses: []core.Analysis{core.AnalysisFlows},
		Scales:   []census.Scale{census.ScaleNational},
		Radius:   1234,
		From:     time.UnixMilli(1).UTC(),
		To:       time.UnixMilli(4 * hourMS).UTC(),
	}
	for h := int64(0); h < 4; h++ {
		k1, err := a.CoverageKeyRequest(custom)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw(100+h, 50, h*hourMS+55, sydneyPt)})); err != nil {
			t.Fatal(err)
		}
		if k2, _ := a.CoverageKeyRequest(custom); k2 == k1 {
			t.Errorf("custom-radius key did not move on a late append into hour %d", h)
		}
	}
}

func TestQueryNeverScansStore(t *testing.T) {
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := hourlyAgg(t, Options{})
	ing, err := NewIngestor(store, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []tweet.Tweet{
		tw(1, 10, 0*hourMS+5, sydneyPt),
		tw(2, 10, 1*hourMS+5, melbourne),
		tw(3, 20, 0*hourMS+10, melbourne),
		tw(4, 20, 2*hourMS+10, sydneyPt),
	} {
		if err := ing.IngestBatch(tweet.BatchOf([]tweet.Tweet{x})); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Count() != 4 || a.Ingested() != 4 {
		t.Fatalf("store %d / ring %d records, want 4/4", store.Count(), a.Ingested())
	}
	before := store.ScanCount()
	// The fixture has no metro-area tweets, so the requests stay at the
	// national scale (a zero request would fail the metro rescaling in
	// Execute too — undefined over all-zero counts).
	reqs := []core.Request{
		{Analyses: []core.Analysis{core.AnalysisStats}},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}},
		{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleNational},
			From: time.UnixMilli(1).UTC(), To: time.UnixMilli(90 * 60 * 1000).UTC()},
	}
	for _, req := range reqs {
		if _, err := a.Query(req); err != nil {
			t.Fatalf("Query(%s): %v", req.Key(), err)
		}
	}
	mustWindow(t, a, math.MinInt64, math.MaxInt64)
	if got := store.ScanCount(); got != before {
		t.Fatalf("store scans moved %d -> %d during live queries; want unchanged", before, got)
	}
}

func TestIngestNDJSON(t *testing.T) {
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := hourlyAgg(t, Options{})
	ing, err := NewIngestor(store, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"id":1,"user":5,"ts":3600100,"lat":-33.8688,"lon":151.2093}
{"id":2,"user":5,"ts":7200100,"lat":-37.8136,"lon":144.9631}
`
	n, err := ing.Ingest(context.Background(), tweet.NewNDJSONReader(strings.NewReader(body)).ReadBatch)
	if err != nil || n != 2 {
		t.Fatalf("ingest: n=%d err=%v", n, err)
	}
	if store.Count() != 2 || a.Ingested() != 2 {
		t.Fatalf("store %d / ring %d, want 2/2", store.Count(), a.Ingested())
	}
	// A malformed line errors with its line number; prior records are
	// still flushed durably and into the ring.
	n, err = ing.Ingest(context.Background(), tweet.NewNDJSONReader(strings.NewReader(`{"id":3,"user":6,"ts":3600200,"lat":-33.86,"lon":151.20}
{"id":4,"user":6,"lat":999`)).ReadBatch)
	if err == nil || n != 1 {
		t.Fatalf("malformed ingest: n=%d err=%v, want n=1 and an error", n, err)
	}
	if store.Count() != 3 || a.Ingested() != 3 {
		t.Fatalf("after malformed batch: store %d / ring %d, want 3/3", store.Count(), a.Ingested())
	}
}

func TestWindowTweetsCanonicalOrder(t *testing.T) {
	a := hourlyAgg(t, Options{})
	fourBuckets(t, a)
	got := mustWindow(t, a, math.MinInt64, math.MaxInt64)
	if len(got) != 5 {
		t.Fatalf("window tweets = %d, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.UserID < a.UserID || (b.UserID == a.UserID && b.TS < a.TS) {
			t.Fatalf("window tweets out of (user, time) order at %d", i)
		}
	}
	half := mustWindow(t, a, 0, 2*hourMS)
	if len(half) != 3 {
		t.Fatalf("half-window tweets = %d, want 3", len(half))
	}
}
