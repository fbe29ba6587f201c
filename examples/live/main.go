// Live ingest walkthrough: stream a synthetic corpus into a tweetdb
// store and the time-bucketed aggregation ring (DESIGN.md §7) in daily
// batches — the near-real-time deployment the paper motivates — then
// answer windowed population and flow queries by folding materialised
// bucket partials, verifying along the way that the folded answers are
// identical to a cold full pass and that no query ever rescans storage.
//
// Run with:
//
//	go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"time"

	"geomob"
)

func main() {
	dir, err := os.MkdirTemp("", "geomob-live-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := geomob.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// The ring materialises the paper-default shape with daily buckets.
	agg, err := geomob.NewLiveAggregator(geomob.LiveOptions{BucketWidth: 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	ing, err := geomob.NewLiveIngestor(store, agg, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Replay a synthetic collection as a chronological feed: batches
	// arrive day by day, exactly like a streaming ingest would.
	tweets, err := geomob.GenerateCorpus(geomob.DefaultCorpusConfig(8000, 42, 43))
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(tweets, func(i, j int) bool { return tweets[i].TS < tweets[j].TS })
	day := int64(24 * time.Hour / time.Millisecond)
	batches := 0
	for off := 0; off < len(tweets); {
		end := off
		dayIdx := tweets[off].TS / day
		for end < len(tweets) && tweets[end].TS/day == dayIdx {
			end++
		}
		if err := ing.IngestBatch(geomob.NewTweetBatch(tweets[off:end])); err != nil {
			log.Fatal(err)
		}
		if err := ing.Flush(); err != nil {
			log.Fatal(err)
		}
		batches++
		off = end
	}
	fmt.Printf("ingested %d tweets in %d daily batches into %d buckets\n",
		agg.Ingested(), batches, agg.Buckets())

	// A windowed query folds precomputed bucket partials — here, the
	// national population estimate over the collection's second month.
	first := time.UnixMilli(tweets[0].TS).UTC()
	from := first.AddDate(0, 1, 0)
	to := first.AddDate(0, 2, 0)
	req := geomob.StudyRequest{
		Analyses: []geomob.Analysis{geomob.AnalysisPopulation},
		Scales:   []geomob.Scale{geomob.ScaleNational},
		From:     from, To: to,
	}
	res, err := agg.Query(req)
	if err != nil {
		log.Fatal(err)
	}
	est := res.Population[geomob.ScaleNational]
	corr, err := est.Correlation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window [%s, %s): national log-Pearson r = %.3f over %d areas\n",
		from.Format("2006-01-02"), to.Format("2006-01-02"), corr.R, len(est.TwitterUsers))

	// The fold is exact: a cold full pass over the same records gives the
	// same numbers (the property tests assert bit-identity; here we spot
	// check the headline).
	window, err := agg.WindowTweets(math.MinInt64, math.MaxInt64)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := geomob.NewStudy(geomob.SliceSource(window)).Execute(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	refCorr, err := ref.Population[geomob.ScaleNational].Correlation()
	if err != nil {
		log.Fatal(err)
	}
	if corr.R != refCorr.R {
		log.Fatalf("fold diverged from full pass: %v vs %v", corr.R, refCorr.R)
	}
	fmt.Println("bucket fold == cold full pass: exact")

	// And none of it touched the store: the ring answered everything.
	fmt.Printf("store scans during queries: %d (partial builds: %d)\n",
		store.ScanCount(), agg.Builds())

	// Flows over an aligned window reuse the same partials.
	fres, err := agg.Query(geomob.StudyRequest{
		Analyses: []geomob.Analysis{geomob.AnalysisFlows},
		Scales:   []geomob.Scale{geomob.ScaleNational},
		From:     from, To: to,
	})
	if err != nil {
		log.Fatal(err)
	}
	mr := fres.Mobility[geomob.ScaleNational]
	fmt.Printf("flows in window: %.0f transitions over %d OD pairs\n", mr.TotalFlow, mr.FlowPairs)
}
