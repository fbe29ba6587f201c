package live

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// TestRollupFactors pins the tier selection: tiers exist only when the
// bucket width divides the span and the tiers nest.
func TestRollupFactors(t *testing.T) {
	cases := []struct {
		width time.Duration
		want  []int64
	}{
		{time.Hour, []int64{24, 720}},
		{6 * time.Hour, []int64{4, 120}},
		{24 * time.Hour, []int64{30}},
		{31 * 24 * time.Hour, nil},
		{7 * time.Hour, nil},
		{45 * time.Minute, []int64{32, 960}},
	}
	for _, c := range cases {
		got := rollupFactors(int64(c.width / time.Millisecond))
		if len(got) != len(c.want) {
			t.Fatalf("rollupFactors(%v) = %v, want %v", c.width, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("rollupFactors(%v) = %v, want %v", c.width, got, c.want)
			}
		}
	}
}

// TestRollupTierExactness drives the rollup cache end to end on a
// 6-hour ring (tiers [4, 120]) over a 7-month corpus: full-window
// queries must hit the tiers — building groups first, then serving from
// cache — and stay bit-identical to a cold rescan before and after the
// caches exist, and across new ingest that invalidates groups. The bit-identity of folding tier partials in
// place of their member buckets is the merge-associativity contract
// mergePartials carries (DESIGN.md §11).
func TestRollupTierExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all, sorted := snapCorpus(t, 700, 57)
	agg, err := NewAggregator(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.tiers) != 2 {
		t.Fatalf("6h ring has %d tiers, want 2", len(agg.tiers))
	}
	batches := randomBatches(rng, all, 7)
	half := len(batches) / 2
	for _, batch := range batches[:half] {
		if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	halfCorpus := make([]tweet.Tweet, 0, len(all))
	for _, batch := range batches[:half] {
		halfCorpus = append(halfCorpus, batch...)
	}
	_, halfSorted := sortedCopy(halfCorpus)
	reqs := snapRequests(halfSorted)
	assertAggMatchesRefs(t, agg, reqs, snapRefs(t, halfSorted, reqs), "half corpus, cold tiers")

	st := agg.RollupStats()
	if len(st) != 2 || st[0].Factor != 4 || st[1].Factor != 120 {
		t.Fatalf("tier stats %+v, want factors [4, 120]", st)
	}
	// The full-window queries are served by the month tier; the windowed
	// request falls back to day groups at its edges — both tiers must
	// have built something by now.
	if st[0].Builds == 0 || st[1].Builds == 0 {
		t.Fatalf("queries built no groups: %+v", st)
	}
	// The same queries again are pure cache: hits grow, builds do not.
	if _, err := agg.Query(reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Query(reqs[3]); err != nil {
		t.Fatal(err)
	}
	st2 := agg.RollupStats()
	for i := range st2 {
		if st2[i].Builds != st[i].Builds || st2[i].Hits <= st[i].Hits {
			t.Fatalf("repeat queries rebuilt tier %d groups: %+v then %+v", i, st, st2)
		}
	}

	// More ingest dirties member buckets; stale groups must rebuild and
	// answers must track the grown corpus exactly.
	for _, batch := range batches[half:] {
		if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	reqs = snapRequests(sorted)
	assertAggMatchesRefs(t, agg, reqs, snapRefs(t, sorted, reqs), "full corpus, stale tiers")
}

// TestMergeAcrossChunksMatchesMembers: a merged group holding several
// cursor chunks of users folds bit-identically to its members, for
// random runs of member buckets and random placement-slot masks. Users
// draw ids from the whole int64 range, so the chunk cuts split the
// members' rows unevenly.
func TestMergeAcrossChunksMatchesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	agg, err := NewAggregator(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const hours = 24
	var feed []tweet.Tweet
	for u := 0; u < 3*cursorChunk; u++ {
		id := rng.Int63()
		if u == 0 {
			id = 0
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			c := edgeCities[rng.Intn(len(edgeCities))]
			feed = append(feed, tweet.Tweet{
				ID: int64(len(feed)), UserID: id, TS: int64(rng.Intn(hours)) * hourMs,
				Lat: c[0] + rng.Float64()*0.1, Lon: c[1] + rng.Float64()*0.1,
			})
		}
	}
	if err := agg.IngestBatch(tweet.BatchOf(feed)); err != nil {
		t.Fatal(err)
	}
	var members []*partial
	for _, idx := range agg.idxs {
		b := agg.buckets[idx]
		ensureSortedLocked(b, agg.slots)
		members = append(members, agg.buildRange(b, math.MinInt64, math.MaxInt64, allSlots))
	}
	info, _, _, err := plan(core.Request{
		Analyses: []core.Analysis{core.AnalysisStats, core.AnalysisPopulation, core.AnalysisFlows},
		Scales:   []census.Scale{census.ScaleNational, census.ScaleState, census.ScaleMetropolitan},
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		lo := rng.Intn(len(members) / 2)
		run := members[lo : lo+2+rng.Intn(len(members)-lo-1)]
		if trial == 0 {
			run = members
		}
		merged := agg.mergePartials(run)
		if trial == 0 && len(merged.users) <= 2*cursorChunk {
			t.Fatalf("the merge holds %d users, want more than two chunks", len(merged.users))
		}
		keep := allSlots
		if trial%2 == 1 {
			keep = uint16(rng.Intn(int(allSlots)))
		}
		wantF, wantU := agg.fold(info, run, keep)
		gotF, gotU := agg.fold(info, []*partial{merged}, keep)
		if !testx.ValuesBitEqual(gotF, wantF) || !testx.ValuesBitEqual(gotU, wantU) {
			t.Fatalf("trial %d: folding the merge of %d members (%d users, slots %016b) differs from folding the members", trial, len(run), len(merged.users), keep)
		}
	}
}

// sortedCopy returns the slice and a canonically sorted copy.
func sortedCopy(in []tweet.Tweet) ([]tweet.Tweet, []tweet.Tweet) {
	s := append([]tweet.Tweet(nil), in...)
	sort.Sort(tweet.ByUserTime(s))
	return in, s
}
