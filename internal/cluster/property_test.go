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
	// Custom radii: the full study over the full stream, and flows over a
	// random window at one scale.
	from, to := randWindow()
	reqs = append(reqs, core.Request{Radius: 30_000}, core.Request{
		Analyses: []core.Analysis{core.AnalysisFlows},
		Scales:   []census.Scale{census.Scales()[rng.Intn(3)]},
		Radius:   []float64{750, 30_000}[rng.Intn(2)],
		From:     from, To: to,
	})
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
// At R=2 over two members each member holds every slot and serves about
// half, so every fold is over a strict slot subset of its ring; hourly
// buckets there put closed day and month rollups under the random
// windows, and each request is also folded over a random strict slot
// subset and its complement (assertSlotHalves).
func TestScatterGatherMatchesExecuteProperty(t *testing.T) {
	prop := buildClusterProperty(t)
	for _, tc := range []struct {
		n, replication int
		width          time.Duration
	}{{1, 1, 7 * 24 * time.Hour}, {2, 1, 7 * 24 * time.Hour}, {3, 1, 7 * 24 * time.Hour}, {8, 1, 7 * 24 * time.Hour}, {2, 2, time.Hour}} {
		n := tc.n
		name := fmt.Sprintf("shards=%d", n)
		if tc.replication > 1 {
			name += fmt.Sprintf(",replication=%d,width=%v", tc.replication, tc.width)
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && n > 2 {
				t.Skip("short mode runs shard counts 1 and 2 only")
			}
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + n + 100*tc.replication)))
			shards := make([]Shard, n)
			locals := make([]*LocalShard, n)
			for i := range shards {
				s, err := NewLocalShard(nil, live.Options{BucketWidth: tc.width})
				if err != nil {
					t.Fatal(err)
				}
				shards[i] = s
				locals[i] = s
			}
			coord, err := NewCoordinator(shards, CoordinatorOptions{batchSize: 173, drainCap: 2, Replication: tc.replication})
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
				routed += l.Ring().Ingested()
			}
			if want := int64(tc.replication * len(prop.all)); routed != want {
				t.Fatalf("routed %d records into shard rings, want %d", routed, want)
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
				builds += l.Ring().Builds()
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
				builds2 += l.Ring().Builds()
			}
			if builds2 != builds {
				t.Fatalf("warm repeats rebuilt %d bucket partials, want 0", builds2-builds)
			}
			if tc.replication > 1 {
				// R = n: every member holds every slot.
				for _, req := range prop.reqs {
					subset := randomSlotSubset(rng)
					for _, l := range locals {
						assertSlotHalves(t, l, prop.all, req, subset)
					}
				}
				for _, l := range locals {
					if st := l.Ring().RollupStats(); len(st) != 2 || st[0].Builds == 0 || st[1].Builds == 0 {
						t.Fatalf("the windows took no closed day or month rollup: %+v", st)
					}
				}
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

// randomSlotSubset draws a non-empty strict subset of the placement
// slots, ascending.
func randomSlotSubset(rng *rand.Rand) []int {
	for {
		var subset []int
		for k := 0; k < ring.Slots; k++ {
			if rng.Intn(2) == 0 {
				subset = append(subset, k)
			}
		}
		if len(subset) > 0 && len(subset) < ring.Slots {
			return subset
		}
	}
}

// assertSlotHalves folds req on s over a strict placement-slot subset
// and over its complement — the split a failover makes of one member's
// slots — where held are the records s holds. Each half must assemble to
// the single-node answer over its own users' records, and the halves
// must merge to the single-node answer over all of them. One field of a
// half is wider by design: its span box covers every user of the folded
// partials (the merge unions the boxes back to the exact one), so each
// half's box must contain its users' box and is then assembled with it.
func assertSlotHalves(t *testing.T, s Shard, held []tweet.Tweet, req core.Request, subset []int) {
	t.Helper()
	var in [ring.Slots]bool
	for _, k := range subset {
		in[k] = true
	}
	var rest []int
	for k := 0; k < ring.Slots; k++ {
		if !in[k] {
			rest = append(rest, k)
		}
	}
	sameErr := func(got, want error) bool {
		return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
	}
	var parts []*live.ShardPartial
	for h, half := range [][]int{subset, rest} {
		ps, err := s.Partials(context.Background(), req, half)
		if err != nil {
			t.Fatalf("%s over slots %v: %v", req.Key(), half, err)
		}
		parts = append(parts, ps...)
		var own []tweet.Tweet
		for _, tw := range held {
			if in[ring.SlotOf(tw.UserID)] == (h == 0) {
				own = append(own, tw)
			}
		}
		sort.Sort(tweet.ByUserTime(own))
		want, err := core.NewStudyWithOptions(core.SliceSource(own), core.StudyOptions{Workers: 1}).Fold(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got := ps[0].FoldedPass
		if got.Stats, err = live.FlattenUsers(got.Tweets, ps[0].Users); err != nil {
			t.Fatal(err)
		}
		if b, w := got.BBox, want.BBox; want.Seen && !(b.MinLat <= w.MinLat && b.MinLon <= w.MinLon && b.MaxLat >= w.MaxLat && b.MaxLon >= w.MaxLon) {
			t.Fatalf("%s over slots %v: box %+v does not hold its users' box %+v", req.Key(), half, b, w)
		}
		got.BBox = want.BBox
		res, err := core.AssembleFolded(req, &got)
		ref, refErr := core.AssembleFolded(req, want)
		if !sameErr(err, refErr) || err == nil && !testx.ValuesBitEqual(res, ref) {
			t.Fatalf("%s over slots %v diverges from single-node execute over its users (err %v, want %v)", req.Key(), half, err, refErr)
		}
	}
	merged, err := MergePartials(req, parts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AssembleFolded(req, merged)
	sorted := append([]tweet.Tweet(nil), held...)
	sort.Sort(tweet.ByUserTime(sorted))
	ref, refErr := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1}).Execute(context.Background(), req)
	if !sameErr(err, refErr) || err == nil && !testx.ValuesBitEqual(res, ref) {
		t.Fatalf("%s: slot halves %v and %v merge to something else than single-node execute (err %v, want %v)", req.Key(), subset, rest, err, refErr)
	}
}
