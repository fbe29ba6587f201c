// Cluster walkthrough: an in-process 4-partition deployment (DESIGN.md
// §8) — the -partitions mode of cmd/mobserve as a library. A coordinator
// routes a synthetic corpus by user hash into four shard rings (each in
// lockstep with its own store), answers a full study by scatter-gather,
// verifies the answer equals a cold single-node pass, and shows that
// warm repeats are served from the coverage-fingerprinted snapshot cache
// with zero shard folds and zero store scans.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"geomob"
)

func main() {
	dir, err := os.MkdirTemp("", "geomob-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Four in-process partitions, each a live bucket ring in lockstep
	// with its own store — the layout one mobserve process serves with
	// -partitions 4.
	const partitions = 4
	var shards []geomob.ClusterShard
	var locals []*geomob.ClusterLocalShard
	for i := 0; i < partitions; i++ {
		store, err := geomob.OpenStore(filepath.Join(dir, fmt.Sprintf("part-%03d", i)))
		if err != nil {
			log.Fatal(err)
		}
		shard, err := geomob.NewClusterLocalShard(store, geomob.LiveOptions{BucketWidth: 24 * time.Hour})
		if err != nil {
			log.Fatal(err)
		}
		shards = append(shards, shard)
		locals = append(locals, shard)
	}
	coord, err := geomob.NewClusterCoordinator(shards, geomob.ClusterCoordinatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Ingest through the coordinator: every record is hashed to its
	// owning partition, batched, and delivered concurrently per shard.
	tweets, err := geomob.GenerateCorpus(geomob.DefaultCorpusConfig(6000, 42, 43))
	if err != nil {
		log.Fatal(err)
	}
	if err := coord.AddBatch(geomob.NewTweetBatch(tweets)); err != nil {
		log.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d tweets across %d partitions:\n", len(tweets), partitions)
	for i, l := range locals {
		fmt.Printf("  partition %d: %7d durable records, %3d ring buckets\n",
			i, l.Store().Count(), l.Ring().Buckets())
	}
	scansAfterBoot := storeScans(locals)

	// Scatter-gather the full study. Each shard folds its materialised
	// bucket partials; the coordinator interleaves the user-disjoint
	// partials and assembles through the single-node float pipeline.
	res, cached, err := coord.Query(geomob.StudyRequest{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull study via scatter-gather (cached=%v):\n", cached)
	fmt.Printf("  users %d, tweets %d, pooled log-log r = %.4f\n",
		res.Stats.Users, res.Stats.Tweets, res.Pooled.TestLog.R)

	// The cluster answer is the single-node answer, bit for bit.
	sorted := append([]geomob.Tweet(nil), tweets...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.UserID != b.UserID {
			return a.UserID < b.UserID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.ID < b.ID
	})
	ref, err := geomob.NewStudy(geomob.SliceSource(sorted)).Execute(context.Background(), geomob.StudyRequest{})
	if err != nil {
		log.Fatal(err)
	}
	if math.Float64bits(res.Pooled.TestLog.R) != math.Float64bits(ref.Pooled.TestLog.R) ||
		res.Stats.Users != ref.Stats.Users ||
		math.Float64bits(res.Stats.MeanGyrationKM) != math.Float64bits(ref.Stats.MeanGyrationKM) {
		log.Fatal("cluster answer diverges from the single-node pass")
	}
	fmt.Println("  equals the single-node Study.Execute answer (IEEE-754 bits)")

	// Warm repeats: the coverage fingerprint has not moved, so the
	// snapshot cache answers — zero shard folds, and the stores were
	// never scanned at all (the rings fold materialised partials).
	folds := coord.PartialFetches()
	for i := 0; i < 3; i++ {
		if _, cached, err = coord.Query(geomob.StudyRequest{}); err != nil || !cached {
			log.Fatalf("warm repeat %d: cached=%v err=%v", i, cached, err)
		}
	}
	fmt.Printf("\n3 warm repeats: cached, %d extra shard folds, %d store scans since boot\n",
		coord.PartialFetches()-folds, storeScans(locals)-scansAfterBoot)

	// A windowed flows query exercises the same machinery per window.
	from := time.UnixMilli(tweets[0].TS).UTC()
	req := geomob.StudyRequest{
		Analyses: []geomob.Analysis{geomob.AnalysisFlows},
		Scales:   []geomob.Scale{geomob.ScaleNational},
		From:     from, To: from.AddDate(0, 1, 0),
	}
	flows, _, err := coord.Query(req)
	if err != nil {
		log.Fatal(err)
	}
	mr := flows.Mobility[geomob.ScaleNational]
	fmt.Printf("one-month national flows: total %.0f over %d OD pairs\n",
		mr.TotalFlow, mr.FlowPairs)
	if extra := storeScans(locals) - scansAfterBoot; extra != 0 {
		log.Fatalf("queries scanned the stores %d times; the rings should answer everything", extra)
	}
	fmt.Println("no query ever scanned a store: the bucket rings answered everything")
}

// storeScans sums the partitions' segment scan counters.
func storeScans(locals []*geomob.ClusterLocalShard) int64 {
	var scans int64
	for _, l := range locals {
		scans += l.Store().ScanCount()
	}
	return scans
}
