package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/ring"
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// randomBatches shuffles a corpus and splits it into 1..maxBatches random
// append batches — the adversarial arrival schedule: nothing about batch
// composition or order is aligned with users, time, buckets or
// partitions.
func randomBatches(rng *rand.Rand, all []tweet.Tweet, maxBatches int) [][]tweet.Tweet {
	shuffled := append([]tweet.Tweet(nil), all...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n := 1 + rng.Intn(maxBatches)
	var batches [][]tweet.Tweet
	for off := 0; off < len(shuffled); {
		size := 1 + rng.Intn(2*len(shuffled)/n+1)
		end := off + size
		if end > len(shuffled) {
			end = len(shuffled)
		}
		batches = append(batches, shuffled[off:end])
		off = end
	}
	return batches
}

// clusterProperty is the corpus plus the reference single-node answers
// shared by every shard-count subtest.
type clusterProperty struct {
	all    []tweet.Tweet
	reqs   []core.Request
	refs   []*core.Result
	refErr []error
}

func buildClusterProperty(t *testing.T) *clusterProperty {
	t.Helper()
	gen, err := synth.NewGenerator(synth.DefaultConfig(900, 23, 29))
	if err != nil {
		t.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]tweet.Tweet(nil), all...)
	sort.Sort(tweet.ByUserTime(sorted))
	minTS, maxTS := sorted[0].TS, sorted[0].TS
	for _, tw := range sorted {
		minTS = min(minTS, tw.TS)
		maxTS = max(maxTS, tw.TS)
	}

	rng := rand.New(rand.NewSource(101))
	randWindow := func() (time.Time, time.Time) {
		span := maxTS - minTS
		a := minTS + rng.Int63n(span)
		b := minTS + rng.Int63n(span)
		if a > b {
			a, b = b, a
		}
		return time.UnixMilli(a).UTC(), time.UnixMilli(b + 1).UTC()
	}

	reqs := []core.Request{
		{}, // the full study over the full stream
		{Analyses: []core.Analysis{core.AnalysisStats}},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}},
		{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleMetropolitan}},
	}
	for i := 0; i < 4; i++ {
		from, to := randWindow()
		an := []core.Analysis{core.AnalysisStats, core.AnalysisPopulation, core.AnalysisMobility, core.AnalysisFlows}[rng.Intn(4)]
		req := core.Request{Analyses: []core.Analysis{an}, From: from, To: to}
		if rng.Intn(2) == 0 {
			req.Scales = []census.Scale{census.Scales()[rng.Intn(3)]}
		}
		reqs = append(reqs, req)
	}
	// A window guaranteed to match nothing: the cluster must agree on
	// ErrEmptyDataset.
	reqs = append(reqs, core.Request{
		From: time.UnixMilli(minTS - 10_000).UTC(),
		To:   time.UnixMilli(minTS - 1).UTC(),
	})

	p := &clusterProperty{all: all, reqs: reqs}
	study1 := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})
	study8 := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 8})
	for ri, req := range reqs {
		// Reference errors are kept, not rejected: a random window can
		// legitimately be degenerate (empty, or too sparse for a fit),
		// and the cluster must reproduce the same failure.
		ref, err := study1.Execute(context.Background(), req)
		p.refs = append(p.refs, ref)
		p.refErr = append(p.refErr, err)
		// Workers 1 ≡ 8 is §4's contract; pin it once so the cluster
		// comparison below is against *the* single-node answer, not one
		// worker count's.
		if ri == 0 {
			ref8, err8 := study8.Execute(context.Background(), req)
			if err8 != nil || !testx.ValuesBitEqual(ref, ref8) {
				t.Fatalf("req 0: workers 1 and 8 diverge (err8=%v)", err8)
			}
		}
	}
	return p
}

// TestScatterGatherMatchesExecuteProperty is the subsystem's signature
// invariant (DESIGN.md §8): for every shard count, random partition-blind
// arrival schedules and random [From, To) windows, the coordinator's
// scatter-gather answer is bit-for-bit identical (IEEE-754 bits, NaN
// included) to a cold single-node Study.Execute over the same records —
// across all analyses — and a warm cache repeat issues zero shard folds.
func TestScatterGatherMatchesExecuteProperty(t *testing.T) {
	prop := buildClusterProperty(t)
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			if testing.Short() && n > 2 {
				t.Skip("short mode runs shard counts 1 and 2 only")
			}
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			shards := make([]Shard, n)
			locals := make([]*LocalShard, n)
			for i := range shards {
				s, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				shards[i] = s
				locals[i] = s
			}
			coord, err := NewCoordinator(shards, CoordinatorOptions{BatchSize: 173, QueueDepth: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			for _, batch := range randomBatches(rng, prop.all, 6) {
				if err := coord.AddBatch(tweet.BatchOf(batch)); err != nil {
					t.Fatal(err)
				}
			}
			if err := coord.Flush(); err != nil {
				t.Fatal(err)
			}
			var routed int64
			for _, l := range locals {
				routed += l.Ingested()
			}
			if routed != int64(len(prop.all)) {
				t.Fatalf("routed %d of %d records into shard rings", routed, len(prop.all))
			}

			// Every node owning a slot answers each fold with one partial
			// over its slot set: one fetch per serving node per query.
			serving := map[int]bool{}
			for k := 0; k < ring.Slots; k++ {
				serving[coord.ring.Replicas(k)[0]] = true
			}
			for ri, req := range prop.reqs {
				fetches := coord.PartialFetches()
				res, cached, err := coord.Query(req)
				if got := coord.PartialFetches() - fetches; got != int64(len(serving)) {
					t.Fatalf("req %d (%s): %d shard fetches, want one per serving node (%d)", ri, req.Key(), got, len(serving))
				}
				if refErr := prop.refErr[ri]; refErr != nil {
					// Degenerate windows fail identically: the same
					// sentinel for empty datasets, and the same assembly
					// error otherwise (shared core.AssembleFolded path).
					if errors.Is(refErr, core.ErrEmptyDataset) {
						if !errors.Is(err, core.ErrEmptyDataset) {
							t.Fatalf("req %d (%s): cluster err = %v, want ErrEmptyDataset", ri, req.Key(), err)
						}
					} else if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("req %d (%s): cluster err = %v, want %v", ri, req.Key(), err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("req %d (%s): cluster query: %v", ri, req.Key(), err)
				}
				if cached {
					t.Fatalf("req %d (%s): first query reported cached", ri, req.Key())
				}
				if !testx.ValuesBitEqual(res, prop.refs[ri]) {
					t.Fatalf("req %d (%s): %d-shard scatter-gather diverges from single-node execute", ri, req.Key(), n)
				}
			}

			// Warm repeats: every successful request hits the snapshot
			// cache, with zero further shard folds and zero partial
			// rebuilds — only the cheap coverage probes run.
			fetches := coord.PartialFetches()
			builds := int64(0)
			for _, l := range locals {
				builds += l.Builds()
			}
			for ri, req := range prop.reqs {
				if prop.refErr[ri] != nil {
					continue
				}
				res, cached, err := coord.Query(req)
				if err != nil || !cached {
					t.Fatalf("req %d (%s): warm repeat cached=%v err=%v", ri, req.Key(), cached, err)
				}
				if !testx.ValuesBitEqual(res, prop.refs[ri]) {
					t.Fatalf("req %d (%s): warm repeat diverges", ri, req.Key())
				}
			}
			if got := coord.PartialFetches(); got != fetches {
				t.Fatalf("warm repeats issued %d shard folds, want 0", got-fetches)
			}
			var builds2 int64
			for _, l := range locals {
				builds2 += l.Builds()
			}
			if builds2 != builds {
				t.Fatalf("warm repeats rebuilt %d bucket partials, want 0", builds2-builds)
			}

			// An ingest that lands in covered buckets moves the coverage
			// fingerprint: the full-stream request recomputes (a miss)
			// and again matches a fresh single-node reference.
			extra := tweet.Tweet{ID: 1 << 40, UserID: prop.all[0].UserID, TS: prop.all[0].TS + 1,
				Lat: prop.all[0].Lat, Lon: prop.all[0].Lon}
			if err := coord.AddBatch(tweet.BatchOf([]tweet.Tweet{extra})); err != nil {
				t.Fatal(err)
			}
			if err := coord.Flush(); err != nil {
				t.Fatal(err)
			}
			res, cached, err := coord.Query(prop.reqs[0])
			if err != nil || cached {
				t.Fatalf("post-append query cached=%v err=%v, want fresh compute", cached, err)
			}
			withExtra := append(append([]tweet.Tweet(nil), prop.all...), extra)
			sort.Sort(tweet.ByUserTime(withExtra))
			ref, err := core.NewStudyWithOptions(core.SliceSource(withExtra), core.StudyOptions{Workers: 1}).
				Execute(context.Background(), prop.reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !testx.ValuesBitEqual(res, ref) {
				t.Fatal("post-append scatter-gather diverges from single-node execute")
			}
		})
	}
}
