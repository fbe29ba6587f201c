package cluster

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"geomob/internal/live"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// allocCorpus builds a deterministic (user, time)-sorted corpus shaped
// like the ingest benchmarks'.
func allocCorpus(n int) []tweet.Tweet {
	rng := rand.New(rand.NewPCG(7, 8))
	tweets := make([]tweet.Tweet, n)
	ts := int64(1378000000000)
	for i := range tweets {
		ts += int64(rng.IntN(60000))
		tweets[i] = tweet.Tweet{
			ID: int64(i), UserID: int64(i / 20), TS: ts,
			Lat: -35 + rng.Float64()*2, Lon: 150 + rng.Float64()*2,
		}
	}
	return tweets
}

// TestClusterIngestAllocBalance pins the fix for the per-lane
// re-serialisation inefficiency: the coordinator used to rebuild every
// record row-wise for each partition lane, so fanning out over four
// partitions cost ~60% more bytes per record than one. With lanes
// handing pre-built columnar batches to their shards, the per-record
// byte cost must stay flat as partitions grow.
func TestClusterIngestAllocBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	corpus := tweet.BatchOf(allocCorpus(20000))
	// One ingest pass, bytes allocated measured via memstats. A warm-up
	// pass per configuration absorbs one-time lazy initialisation (grid
	// resolvers, http transports) so the reps measure steady state; the
	// minimum over reps discounts GC-timing noise.
	run := func(parts int) (allocated uint64) {
		shards := make([]Shard, parts)
		for k := range shards {
			store, err := tweetdb.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			shard, err := NewLocalShard(store, live.Options{BucketWidth: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			shards[k] = shard
		}
		coord, err := NewCoordinator(shards, CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := coord.AddBatch(corpus); err != nil {
			t.Fatal(err)
		}
		if err := coord.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	measure := func(parts int) float64 {
		run(parts) // warm-up
		best := run(parts)
		for rep := 1; rep < 3; rep++ {
			if got := run(parts); got < best {
				best = got
			}
		}
		return float64(best)
	}
	one := measure(1)
	four := measure(4)
	if one == 0 {
		t.Fatal("no allocation measured for partitions=1")
	}
	ratio := four / one
	t.Logf("bytes/op: partitions=1 %.0f, partitions=4 %.0f (ratio %.2f)", one, four, ratio)
	if ratio > 1.6 {
		t.Errorf("partitions=4 allocates %.2fx the bytes of partitions=1; want <= 1.6x", ratio)
	}
}
