package live

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"geomob/internal/core"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// executeOver is the reference answer: a cold Study.Execute over records.
func executeOver(records []tweet.Tweet, req core.Request) (*core.Result, error) {
	sorted := append([]tweet.Tweet(nil), records...)
	sort.Sort(tweet.ByUserTime(sorted))
	return core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 2}).Execute(context.Background(), req)
}

// TestIngestCommitProperty drives an Ingestor through random frame
// splits, record-by-record adds and flushes while some commits fail (the
// store directory is moved away for the step), with queries, snapshots
// and a rival ring of the same Shape — which recycles the pooled resolved
// columns with foreign records — running beside it. After every step the
// ring must hold exactly the committed records and fold to what
// Study.Execute makes of them. Run it under -race and at GOMAXPROCS=1.
func TestIngestCommitProperty(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(71 + trial)))
		all, _ := snapCorpus(t, 250, uint64(31+trial))
		root := t.TempDir()
		dbDir := filepath.Join(root, "db")
		store, err := tweetdb.Open(dbDir)
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := OpenSnapshotStore(filepath.Join(root, "snap"))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewAggregator(Options{BucketWidth: 6 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := NewIngestor(store, agg, []int{0, 400, 1500}[trial%3])
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		beside := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := fn(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		stats := core.Request{Analyses: []core.Analysis{core.AnalysisStats}}
		beside(func() error {
			if _, err := agg.Query(stats); err != nil && !errors.Is(err, core.ErrEmptyDataset) {
				return err
			}
			return nil
		})
		beside(func() error {
			_, err := ing.Snapshot(snaps)
			return err
		})
		rival := agg.Shape.NewAggregator()
		other, _ := snapCorpus(t, 40, 99)
		foreign := tweet.BatchOf(other)
		beside(func() error { return rival.IngestBatch(foreign) })

		var arrived []tweet.Tweet
		check := func(step int, req core.Request) {
			t.Helper()
			n := ing.Total()
			if got := agg.Ingested(); got != n {
				t.Fatalf("trial %d step %d: ring holds %d records, %d are committed", trial, step, got, n)
			}
			if got := store.Count(); got != n {
				t.Fatalf("trial %d step %d: store holds %d records, %d are committed", trial, step, got, n)
			}
			got, gotErr := agg.Query(req)
			want, wantErr := executeOver(arrived[:n], req)
			if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !resultsBitEqual(got, want) {
				t.Fatalf("trial %d step %d: fold over the ring diverges from Execute over the %d committed records (%v / %v)", trial, step, n, gotErr, wantErr)
			}
		}
		failed := 0
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for step, off := 0, 0; off < len(all); step++ {
			frame := all[off:min(len(all), off+1+rng.Intn(200))]
			off += len(frame)
			fail := rng.Intn(3) == 0
			if fail {
				if err := os.Rename(dbDir, dbDir+".away"); err != nil {
					t.Fatal(err)
				}
			}
			before := ing.Total()
			var err error
			switch rng.Intn(3) {
			case 0:
				for _, tw := range frame {
					err = errors.Join(err, ing.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw})))
				}
			case 1:
				err = ing.IngestBatch(tweet.BatchOf(frame))
			default:
				// Two frames and a flush, as one request body makes them.
				half := len(frame) / 2
				err = errors.Join(ing.IngestBatch(tweet.BatchOf(frame[:half])), ing.IngestBatch(tweet.BatchOf(frame[half:])), ing.Flush())
			}
			arrived = append(arrived, frame...)
			if fail {
				if err := os.Rename(dbDir+".away", dbDir); err != nil {
					t.Fatal(err)
				}
				if ing.Total() != before {
					t.Fatalf("trial %d step %d: a commit into a missing directory succeeded", trial, step)
				}
				if err != nil {
					failed++
				}
			} else if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			check(step, stats)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		if ing.Total() != int64(len(all)) {
			t.Fatalf("trial %d: %d of %d records committed after the final flush", trial, ing.Total(), len(all))
		}
		check(-1, core.Request{})
		close(stop)
		wg.Wait()
		if err := store.Verify(); err != nil {
			t.Fatal(err)
		}
		t.Logf("trial %d: %d records, %d failed commits retried", trial, len(all), failed)
	}
}

// TestBackfillPipelineMatchesSerial pins the two-stage backfill to what
// one goroutine makes of the same scan: the same chunks appended in the
// same order, so ring contents, per-bucket revisions and every answer
// agree — for the whole store and for a replay that drops some records.
func TestBackfillPipelineMatchesSerial(t *testing.T) {
	all, _ := snapCorpus(t, 4000, 17)
	if len(all) < 2*backfillChunk+1 {
		t.Fatalf("corpus of %d records does not span three backfill chunks", len(all))
	}
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetSegmentRecords(backfillChunk/3 + 7); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(all); err != nil {
		t.Fatal(err)
	}
	sh, err := NewShape(Options{BucketWidth: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	keeps := map[string]func(ts int64) bool{
		"all records": nil,
		"some dropped": func(ts int64) bool {
			return ts%3 != 0 // drops a third of the records
		},
	}
	for name, keep := range keeps {
		p := sh.NewAggregator()
		n, err := backfill(p, store, tweetdb.Query{}, keep)
		if err != nil {
			t.Fatal(err)
		}

		// The reference: the same scan, chunked the same way, one
		// IngestBatch after another on this goroutine.
		s := sh.NewAggregator()
		buf, total := &tweet.Batch{}, int64(0)
		flush := func() {
			if err := s.IngestBatch(buf); err != nil {
				t.Fatal(err)
			}
			total += int64(buf.Len())
			buf.Reset()
		}
		it := store.Scan(tweetdb.Query{})
		for {
			blk, ok := it.NextBlock()
			if !ok {
				break
			}
			for i := 0; i < blk.Len(); i++ {
				if keep != nil && !keep(blk.TS[i]) {
					continue
				}
				if buf.Append(blk.Row(i)); buf.Len() == backfillChunk {
					flush()
				}
			}
		}
		flush()
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}

		if n != total {
			t.Errorf("%s: pipeline appended %d records, serial %d", name, n, total)
		}
		if p.Ingested() != s.Ingested() || p.rev != s.rev || p.Buckets() != s.Buckets() || p.HeldSlots() != s.HeldSlots() {
			t.Fatalf("%s: pipeline left %d records / revision %d / %d buckets / slots %x, serial %d / %d / %d / %x",
				name, p.Ingested(), p.rev, p.Buckets(), p.HeldSlots(), s.Ingested(), s.rev, s.Buckets(), s.HeldSlots())
		}
		// The coverage key hashes every bucket's (index, revision).
		if p.coverageKey(math.MinInt64, math.MaxInt64) != s.coverageKey(math.MinInt64, math.MaxInt64) {
			t.Fatalf("%s: per-bucket revisions differ", name)
		}
		got, err := p.Query(core.Request{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Query(core.Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(got, want) {
			t.Fatalf("%s: answers differ", name)
		}
	}
}
