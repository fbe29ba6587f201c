package live

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
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// resultsBitEqual is the repo's "bit-identical" invariant made
// executable; see testx.BitEqual.
func resultsBitEqual(a, b *core.Result) bool {
	return testx.ValuesBitEqual(a, b)
}

// randomBatches shuffles a corpus and splits it into 1..maxBatches random
// append batches — the adversarial arrival schedule: nothing about batch
// composition or order is aligned with users, time or buckets.
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

// TestBucketFoldMatchesExecuteProperty is the subsystem's signature
// invariant: for random append schedules and random [From, To) windows,
// the bucket-merged live results are bit-for-bit identical to a cold
// Study.Execute full rescan of the same records — across all analyses
// and across worker counts 1 and 8.
func TestBucketFoldMatchesExecuteProperty(t *testing.T) {
	widths := []time.Duration{6 * time.Hour, 24 * time.Hour, 31 * 24 * time.Hour}
	trials := len(widths)
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("width=%v", widths[trial]), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			gen, err := synth.NewGenerator(synth.DefaultConfig(1200+200*trial, uint64(7+trial), 11))
			if err != nil {
				t.Fatal(err)
			}
			all, err := gen.GenerateAll()
			if err != nil {
				t.Fatal(err)
			}
			agg, err := NewAggregator(Options{BucketWidth: widths[trial]})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range randomBatches(rng, all, 7) {
				if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
					t.Fatal(err)
				}
			}
			sorted := append([]tweet.Tweet(nil), all...)
			sort.Sort(tweet.ByUserTime(sorted))
			minTS, maxTS := sorted[0].TS, sorted[0].TS
			for _, tw := range sorted {
				minTS = min(minTS, tw.TS)
				maxTS = max(maxTS, tw.TS)
			}

			study1 := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})
			study8 := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 8})

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
			// Custom radii: the full study over the full stream, and flows
			// over a random window at one scale.
			from, to := randWindow()
			reqs = append(reqs, core.Request{Radius: 30_000}, core.Request{
				Analyses: []core.Analysis{core.AnalysisFlows},
				Scales:   []census.Scale{census.Scales()[rng.Intn(3)]},
				Radius:   []float64{750, 30_000}[rng.Intn(2)],
				From:     from, To: to,
			})
			// A window guaranteed to match nothing: both sides must agree
			// on ErrEmptyDataset.
			reqs = append(reqs, core.Request{
				From: time.UnixMilli(minTS - 10_000).UTC(),
				To:   time.UnixMilli(minTS - 1).UTC(),
			})

			for ri, req := range reqs {
				liveRes, liveErr := agg.Query(req)
				ref1, err1 := study1.Execute(context.Background(), req)
				ref8, err8 := study8.Execute(context.Background(), req)
				if (err1 == nil) != (err8 == nil) {
					t.Fatalf("req %d (%s): workers 1/8 disagree on error: %v vs %v", ri, req.Key(), err1, err8)
				}
				if err1 != nil {
					if !errors.Is(err1, core.ErrEmptyDataset) {
						t.Fatalf("req %d (%s): execute: %v", ri, req.Key(), err1)
					}
					if !errors.Is(liveErr, core.ErrEmptyDataset) {
						t.Fatalf("req %d (%s): live err = %v, want ErrEmptyDataset", ri, req.Key(), liveErr)
					}
					continue
				}
				if liveErr != nil {
					t.Fatalf("req %d (%s): live query: %v", ri, req.Key(), liveErr)
				}
				if !resultsBitEqual(ref1, ref8) {
					t.Fatalf("req %d (%s): workers 1 and 8 diverge", ri, req.Key())
				}
				if !resultsBitEqual(liveRes, ref1) {
					t.Fatalf("req %d (%s): bucket-merged result diverges from full rescan", ri, req.Key())
				}
			}
		})
	}
}
