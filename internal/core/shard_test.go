package core

import (
	"reflect"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/synth"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// assertResultsIdentical requires every reported number of two study
// results to be exactly equal — the acceptance bar for the sharded
// pipeline is bit-identical output, not approximate agreement.
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("%s: dataset stats differ:\n%+v\nvs\n%+v", label, a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Population, b.Population) {
		t.Errorf("%s: population estimates differ", label)
	}
	if !reflect.DeepEqual(a.PopulationMetro500m, b.PopulationMetro500m) {
		t.Errorf("%s: metro 0.5 km estimates differ", label)
	}
	if !reflect.DeepEqual(a.Pooled, b.Pooled) {
		t.Errorf("%s: pooled correlations differ", label)
	}
	for _, scale := range census.Scales() {
		ma, mb := a.Mobility[scale], b.Mobility[scale]
		if !reflect.DeepEqual(ma.Flows, mb.Flows) {
			t.Errorf("%s/%s: flow matrices differ", label, scale)
		}
		if ma.TotalFlow != mb.TotalFlow || ma.FlowPairs != mb.FlowPairs {
			t.Errorf("%s/%s: flow totals differ", label, scale)
		}
		if !reflect.DeepEqual(ma.Fits, mb.Fits) {
			t.Errorf("%s/%s: model fits differ", label, scale)
		}
	}
}

// TestWorkerCountInvariance is the shard/merge equivalence property test:
// on the same seeded synthetic corpus, Workers: 1 and Workers: 8 (and an
// awkward in-between) must produce identical results in every reported
// quantity — stats, population estimates and flow matrices alike.
func TestWorkerCountInvariance(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(4000, 21, 22))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewStudyWithOptions(SliceSource(tweets), StudyOptions{Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		parallel, err := NewStudyWithOptions(SliceSource(tweets), StudyOptions{Workers: workers}).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertResultsIdentical(t, "slice", serial, parallel)
	}

	// The generator itself is a sharded source: studying it directly must
	// agree with studying the materialised corpus.
	fromGen, err := NewStudyWithOptions(gen, StudyOptions{Workers: 8}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "generator", serial, fromGen)
}

// TestStoreShardedEquivalence runs the parallel pipeline over a compacted
// multi-segment store and requires identical results to the serial
// in-memory pass.
func TestStoreShardedEquivalence(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(1500, 31, 32))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Small segments force a genuinely multi-segment catalogue so the
	// shard planner has real work to do.
	if err := store.SetSegmentRecords(2000); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(tweets); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(store.Segments()) < 3 {
		t.Fatalf("want multi-segment store, got %d segments", len(store.Segments()))
	}
	// The reference is a serial pass over the store's own stream: the
	// binary codec quantises coordinates, so the decoded records (not the
	// pre-storage originals) are the ground truth both runs must agree on.
	stored, err := store.Scan(tweetdb.Query{}).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewStudyWithOptions(SliceSource(stored), StudyOptions{Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewStudyWithOptions(StoreSource{Store: store}, StudyOptions{Workers: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "store", serial, parallel)
}

func TestSliceSourceShards(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(200, 41, 42))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	src := SliceSource(tweets)
	for _, n := range []int{1, 2, 5, 16} {
		shards, err := src.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) == 0 || len(shards) > n {
			t.Fatalf("n=%d: %d shards", n, len(shards))
		}
		var concat []tweet.Tweet
		lastUser := int64(-1)
		for _, sh := range shards {
			first := true
			if err := sh.Each(func(tw tweet.Tweet) error {
				if first && tw.UserID <= lastUser && lastUser >= 0 {
					t.Fatalf("n=%d: shard starts at user %d, previous shard ended at %d", n, tw.UserID, lastUser)
				}
				first = false
				lastUser = tw.UserID
				concat = append(concat, tw)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(concat) != len(tweets) {
			t.Fatalf("n=%d: shards cover %d of %d tweets", n, len(concat), len(tweets))
		}
		for i := range tweets {
			if concat[i] != tweets[i] {
				t.Fatalf("n=%d: tweet %d differs", n, i)
			}
		}
	}
}

// TestSpanAccEpochZero covers the former first == 0 sentinel bug: a
// legitimate tweet at the Unix epoch must register as the earliest
// observation instead of being skipped.
func TestSpanAccEpochZero(t *testing.T) {
	acc := newSpanAcc()
	acc.observe(tweet.Tweet{TS: 0, Lat: -33.9, Lon: 151.2})
	acc.observe(tweet.Tweet{TS: 1378000000000, Lat: -37.8, Lon: 144.9})
	if !acc.seen || acc.first != 0 || acc.last != 1378000000000 {
		t.Fatalf("span = [%d, %d] seen=%v, want [0, 1378000000000]", acc.first, acc.last, acc.seen)
	}

	// Merging preserves the epoch-zero first observation.
	other := newSpanAcc()
	other.observe(tweet.Tweet{TS: 1378000001000, Lat: -27.5, Lon: 153.0})
	acc.merge(&other)
	if acc.first != 0 || acc.last != 1378000001000 {
		t.Fatalf("merged span = [%d, %d]", acc.first, acc.last)
	}
	// Merging into an empty accumulator adopts the other side verbatim.
	fresh := newSpanAcc()
	fresh.merge(&acc)
	if fresh.first != 0 || fresh.last != acc.last || !fresh.seen {
		t.Fatalf("merge into empty lost the span: %+v", fresh)
	}
	// An epoch-zero-only stream must still count as seen.
	zero := newSpanAcc()
	zero.observe(tweet.Tweet{TS: 0, Lat: -33.9, Lon: 151.2})
	if !zero.seen || zero.first != 0 || zero.last != 0 {
		t.Fatalf("epoch-zero-only span = %+v", zero)
	}
}

// TestStudyRunEpochZeroFirst drives the sentinel fix end to end: a corpus
// whose earliest tweet is at the epoch must report First = 1970-01-01.
func TestStudyRunEpochZeroFirst(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(1500, 61, 62))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	// Prepend an epoch tweet for the first user (keeps (user, time) order).
	epoch := tweets[0]
	epoch.TS = 0
	tweets = append([]tweet.Tweet{epoch}, tweets...)
	res, err := NewStudyWithOptions(SliceSource(tweets), StudyOptions{Workers: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.First.Equal(time.UnixMilli(0).UTC()) {
		t.Errorf("First = %v, want the Unix epoch", res.Stats.First)
	}
}
