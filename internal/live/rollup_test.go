package live

import (
	"math/rand"
	"sort"
	"testing"
	"time"

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

// sortedCopy returns the slice and a canonically sorted copy.
func sortedCopy(in []tweet.Tweet) ([]tweet.Tweet, []tweet.Tweet) {
	s := append([]tweet.Tweet(nil), in...)
	sort.Sort(tweet.ByUserTime(s))
	return in, s
}
