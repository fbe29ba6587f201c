package live

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"geomob/internal/core"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// The cold path runs on every processor (DESIGN.md §11). What it builds
// must not depend on how many there are: the same ring materialised at
// GOMAXPROCS 1 and 8 holds bit-equal partials, answers bit-equal results
// and counts the same builds; the same snapshot directory recovered at 1
// and 8 reports the same stats and numbers its buckets' revisions alike.

// atProcs runs fn with GOMAXPROCS set to n.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestColdBuildParallelMatchesSerial(t *testing.T) {
	all, sorted := snapCorpus(t, 300, 23)
	sh, err := NewShape(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	reqs := snapRequests(sorted)
	type outcome struct {
		parts   []*partial
		results []*core.Result
		builds  int64
		tiers   []RollupTierStats
	}
	cold := func(procs int) outcome {
		agg := sh.NewAggregator()
		if err := agg.IngestBatch(tweet.BatchOf(all)); err != nil {
			t.Fatal(err)
		}
		var out outcome
		atProcs(procs, func() {
			// The unbounded window first: it is the one that finds every
			// bucket partial and every closed rollup group missing.
			parts, err := agg.collectCov(math.MinInt64, math.MaxInt64, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			out.parts = parts
			for i, req := range reqs {
				res, err := agg.Query(req)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: req %d (%s): %v", procs, i, req.Key(), err)
				}
				out.results = append(out.results, res)
			}
		})
		out.builds, out.tiers = agg.Builds(), agg.RollupStats()
		return out
	}
	serial, parallel := cold(1), cold(8)
	if serial.builds == 0 || serial.tiers[0].Builds == 0 || serial.tiers[1].Builds == 0 {
		t.Fatalf("corpus too small to exercise the tiers: %d bucket builds, tiers %+v", serial.builds, serial.tiers)
	}
	if serial.builds != parallel.builds || !testx.ValuesBitEqual(serial.tiers, parallel.tiers) {
		t.Fatalf("build counts differ: GOMAXPROCS 1 %d %+v, GOMAXPROCS 8 %d %+v",
			serial.builds, serial.tiers, parallel.builds, parallel.tiers)
	}
	if !testx.ValuesBitEqual(serial.parts, parallel.parts) {
		t.Fatal("partials materialised at GOMAXPROCS 8 differ from those at 1")
	}
	if !testx.ValuesBitEqual(serial.results, parallel.results) {
		t.Fatal("results over a ring materialised at GOMAXPROCS 8 differ from those at 1")
	}
	for i, ref := range snapRefs(t, sorted, reqs) {
		if !resultsBitEqual(parallel.results[i], ref) {
			t.Fatalf("req %d (%s): result diverges from cold rescan", i, reqs[i].Key())
		}
	}
}

func TestRecoverParallelMatchesSerial(t *testing.T) {
	f := newSnapFixtureSpan(t, time.Hour, 24, 200)
	if len(f.man.Files) < 16 {
		t.Fatalf("fixture committed %d files, too few to interleave", len(f.man.Files))
	}
	// One corrupt file in the middle: its neighbours restore, its day
	// alone is backfilled, after them, whatever order the files were
	// decoded in.
	mid := f.man.Files[len(f.man.Files)/2]
	damaged := append([]byte(nil), f.files[mid.File]...)
	damaged[len(damaged)/2] ^= 0xA5
	if err := os.WriteFile(filepath.Join(f.dir, mid.File), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	type revs struct {
		idxs []int64
		revs []uint64
	}
	recovered := func(procs int) (*Aggregator, RecoveryStats, revs) {
		var agg *Aggregator
		var st RecoveryStats
		atProcs(procs, func() { agg, st = f.recoverFresh(t, "parallel restore") })
		var r revs
		agg.mu.Lock()
		defer agg.mu.Unlock()
		for _, idx := range agg.idxs {
			r.idxs = append(r.idxs, idx)
			r.revs = append(r.revs, agg.buckets[idx].rev)
		}
		return agg, st, r
	}
	_, st1, revs1 := recovered(1)
	agg8, st8, revs8 := recovered(8)
	if st1 != st8 {
		t.Fatalf("recovery stats differ: GOMAXPROCS 1 %+v, GOMAXPROCS 8 %+v", st1, st8)
	}
	total := manifestBuckets(f.man)
	if want := (RecoveryStats{Restored: total - mid.Buckets, Backfilled: mid.Buckets, SnapErrors: 1}); st8 != want {
		t.Fatalf("recovery stats %+v, want %+v", st8, want)
	}
	if !testx.ValuesBitEqual(revs1, revs8) {
		t.Fatal("bucket revisions after a restore at GOMAXPROCS 8 differ from those at 1")
	}
	// The backfilled day's buckets took the last revisions.
	n := uint64(len(revs8.revs))
	for i, idx := range revs8.idxs {
		if floorDiv(idx, 24) == mid.Group && revs8.revs[i] <= n-uint64(mid.Buckets) {
			t.Fatalf("backfilled bucket %d holds revision %d of %d, want one of the last %d", idx, revs8.revs[i], n, mid.Buckets)
		}
	}
	f.assertHealed(t, agg8, "parallel restore")
}
