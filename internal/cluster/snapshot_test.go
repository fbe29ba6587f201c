package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// corruptOneSnapBlob flips a byte in the largest snapshot file under the
// snapshot directory and returns how many files it damaged (0 or 1).
func corruptOneSnapBlob(t *testing.T, snapDir string) int {
	t.Helper()
	var target string
	var size int64
	err := filepath.Walk(snapDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".gmsnap") && info.Size() > size {
			target, size = path, info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if target == "" {
		return 0
	}
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xA5
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return 1
}

// queryShard folds req over a throwaway single-member coordinator — the
// scatter-gather answer a restarted member would serve.
func queryShard(t *testing.T, s Shard, req core.Request) *core.Result {
	t.Helper()
	coord, err := NewCoordinator([]Shard{s}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, _, err := coord.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardSnapshotRestart is the cluster-restart contract: a
// store-backed member with a snapshot directory comes back from a kill
// by restoring its ring's bucket files — zero store scans after a clean
// snapshot, slot-subset folds included, tail-only replay otherwise,
// per-bucket cold backfill when a file is corrupt, a full rescan over a
// directory in the older per-slot layout — and every recovered state
// answers bit-identically to a single-node cold execute.
func TestShardSnapshotRestart(t *testing.T) {
	all := failoverCorpus(t, 400, 53, 59)
	cut := len(all) * 3 / 4
	storeDir, snapDir := t.TempDir(), t.TempDir()
	sh, err := live.NewShape(live.Options{BucketWidth: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	store, err := tweetdb.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewLocalShardSnap(store, sh, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator([]Shard{shard}, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AddBatch(tweet.BatchOf(all[:cut])); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	waitNodeDrained(t, coord, 0, 10*time.Second)
	snapSt, err := shard.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapSt.Buckets == 0 || snapSt.Written == 0 || snapSt.Bytes == 0 {
		t.Fatalf("snapshot wrote nothing: %+v", snapSt)
	}
	// The tail: records delivered after the snapshot commit.
	if err := coord.AddBatch(tweet.BatchOf(all[cut:])); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	waitNodeDrained(t, coord, 0, 10*time.Second)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	req := core.Request{}
	ref := singleNodeRef(t, all, req)

	// Restart with a stale snapshot: intact buckets restore, only the
	// tail replays, nothing falls back to a full rescan.
	store2, err := tweetdb.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewLocalShardSnap(store2, sh, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if rec.FullRescan || rec.Restored == 0 || rec.SnapErrors != 0 || rec.Backfilled != 0 {
		t.Fatalf("tail restart recovery went wrong: %+v", rec)
	}
	if rec.TailSegments == 0 || rec.TailRecords != int64(len(all)-cut) {
		t.Fatalf("tail restart replayed %d records over %d segments, want %d records",
			rec.TailRecords, rec.TailSegments, len(all)-cut)
	}
	if !testx.ValuesBitEqual(queryShard(t, s2, req), ref) {
		t.Fatal("tail-restart answer diverges from single-node execute")
	}
	all = assertShardHostile(t, s2, store2, all)
	ref = singleNodeRef(t, all, req)

	// A fresh snapshot covering everything makes the next restart free:
	// no scans, no segment loads, no replay of any kind.
	if _, err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	store3, err := tweetdb.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewLocalShardSnap(store3, sh, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	rec = s3.Recovery()
	if rec.FullRescan || rec.SnapErrors != 0 || rec.Backfilled != 0 ||
		rec.TailSegments != 0 || rec.TailRecords != 0 {
		t.Fatalf("clean restart was not replay-free: %+v", rec)
	}
	if got := store3.ScanCount(); got != 0 {
		t.Fatalf("clean restart scanned the store %d times, want 0", got)
	}
	if !testx.ValuesBitEqual(queryShard(t, s3, req), ref) {
		t.Fatal("clean-restart answer diverges from single-node execute")
	}
	// A strict slot subset and the rest fold from the restored partials
	// alone, each matching single-node execute over its own users.
	assertSlotHalves(t, s3, all, req, []int{1, 2, 3, 5, 8, 13})
	if got := store3.ScanCount(); got != 0 {
		t.Fatalf("slot-subset folds of restored buckets scanned the store %d times, want 0", got)
	}
	h, err := s3.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Snapshot == nil || h.Recovery == nil || h.Snapshot.Buckets == 0 {
		t.Fatalf("health misses snapshot state: %+v", h)
	}

	// Corrupt one snapshot file: only its bucket (one a file at this
	// width) degrades to a windowed cold backfill; the answer does not
	// move.
	if corruptOneSnapBlob(t, snapDir) != 1 {
		t.Fatal("no snapshot blob found to corrupt")
	}
	store4, err := tweetdb.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewLocalShardSnap(store4, sh, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	rec = s4.Recovery()
	if rec.FullRescan || rec.SnapErrors != 1 || rec.Backfilled != 1 {
		t.Fatalf("corrupt-blob recovery should degrade exactly one bucket: %+v", rec)
	}
	if !testx.ValuesBitEqual(queryShard(t, s4, req), ref) {
		t.Fatal("corrupt-blob restart answer diverges from single-node execute")
	}

	// A directory in an older layout — one snapshot directory per
	// placement slot, nothing at its root — is no snapshot: the shard
	// rescans its store and answers the same.
	oldDir := t.TempDir()
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < ring.Slots; k++ {
		sub := filepath.Join(oldDir, fmt.Sprintf("slot-%02d", k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(snapDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	store5, err := tweetdb.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := NewLocalShardSnap(store5, sh, oldDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s5.Recovery(); !rec.FullRescan || rec.Restored != 0 || rec.TailRecords != int64(len(all)) {
		t.Fatalf("a directory of slot subdirectories recovered as %+v, want a full rescan of %d records", rec, len(all))
	}
	if !testx.ValuesBitEqual(queryShard(t, s5, req), ref) {
		t.Fatal("full-rescan answer over an older snapshot layout diverges from single-node execute")
	}
}

// assertShardHostile drives a restored shard's ring through every
// reader of restored buckets' records — a late append into one, window
// edges inside them, a custom radius, a dry coverage walk — with
// deliveries landing beside them, each answer compared with a
// single-node execute over the same records. all is what the store
// holds; it returns what the store holds after.
func assertShardHostile(t *testing.T, s *LocalShard, store *tweetdb.Store, all []tweet.Tweet) []tweet.Tweet {
	t.Helper()
	minTS, maxTS := all[0].TS, all[0].TS
	for _, tw := range all {
		minTS, maxTS = min(minTS, tw.TS), max(maxTS, tw.TS)
	}
	// The two delivering goroutines are two senders, each with its own
	// ascending sequences.
	deliver := func(sender string, seq uint64, tw tweet.Tweet) error {
		frame, err := tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{tw}))
		if err != nil {
			return err
		}
		return s.DeliverBatch(sender, []Delivery{{Seq: seq, Slot: ring.SlotOf(tw.UserID), Frame: frame}})
	}
	// Deliveries a year past the corpus run beside everything below.
	base := all
	future := func(k int) tweet.Tweet {
		tw := base[k%len(base)]
		tw.ID, tw.TS = 1<<40+int64(k), maxTS+365*24*3600*1000+int64(k)*61_000
		return tw
	}
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		landed  []tweet.Tweet
		stopped bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := deliver("future", uint64(k)+1, future(k)); err != nil {
				t.Error(err)
				return
			}
			landed = append(landed, future(k))
		}
	}()
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer halt()

	at := func(ms int64) time.Time { return time.UnixMilli(ms).UTC() }
	span := maxTS - minTS
	windows := []core.Request{
		{Analyses: []core.Analysis{core.AnalysisStats}, From: at(minTS + span/3 + 3_600_017), To: at(maxTS - span/3 - 7_200_029)},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}, From: at(minTS + span/7 + 17), To: at(maxTS - span/7 - 29)},
	}
	// A dry coverage walk reads nothing back.
	scans := store.ScanCount()
	for _, req := range windows {
		if _, err := s.agg.ExplainCoverage(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.ScanCount(); got != scans {
		t.Fatalf("dry coverage walks moved the scan count %d -> %d", scans, got)
	}
	// A late record lands in a restored bucket.
	late := all[len(all)/2]
	late.ID = 1 << 41
	if err := deliver("late", 1, late); err != nil {
		t.Fatal(err)
	}
	all = append(all, late)
	for i, req := range windows {
		if !testx.ValuesBitEqual(queryShard(t, s, req), singleNodeRef(t, all, req)) {
			t.Fatalf("window %d over the restored shard diverges from single-node execute", i)
		}
	}
	// A custom radius folds over the ring's window, read back from the
	// store.
	custom := core.Request{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleState}, Radius: 30_000, From: at(minTS), To: at(maxTS + 1)}
	if !testx.ValuesBitEqual(queryShard(t, s, custom), singleNodeRef(t, all, custom)) {
		t.Fatal("custom-radius fold of the restored shard diverges from single-node execute")
	}
	halt()
	return append(all, landed...)
}

// TestDeliverBatchDedup pins the batched fast path's contract: one
// durable commit applies every fresh frame and advances the sender's
// mark to the top sequence, duplicates inside and across batches drop
// without re-applying, and the mark survives a restart.
func TestDeliverBatchDedup(t *testing.T) {
	dir := t.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLocalShard(store, live.Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mkFrame := func(id int64) (int, []byte) {
		tw := tweet.Tweet{ID: id, UserID: 40 + id, TS: 1378000000000 + id, Lat: -33.87, Lon: 151.21}
		frame, err := tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{tw}))
		if err != nil {
			t.Fatal(err)
		}
		return ring.SlotOf(tw.UserID), frame
	}
	var ds []Delivery
	for i := int64(1); i <= 4; i++ {
		slot, frame := mkFrame(i)
		ds = append(ds, Delivery{Seq: uint64(i), Slot: slot, Frame: frame})
	}
	segsBefore := len(store.Segments())
	if err := s.DeliverBatch("sender-a", ds); err != nil {
		t.Fatal(err)
	}
	if got := s.Ring().Ingested(); got != 4 {
		t.Fatalf("batch ingested %d records, want 4", got)
	}
	if got := len(store.Segments()) - segsBefore; got != 1 {
		t.Fatalf("batch committed %d segments, want 1", got)
	}
	// The whole batch again, and each frame singly: all duplicates.
	if err := s.DeliverBatch("sender-a", ds); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := s.DeliverBatch("sender-a", []Delivery{d}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Ring().Ingested(); got != 4 {
		t.Fatalf("redelivery re-applied: ingested %d, want 4", got)
	}
	// A partially duplicate batch applies only the fresh tail, and the
	// delivered-frames counter counts only that.
	slot5, frame5 := mkFrame(5)
	mixed := append(append([]Delivery(nil), ds[2:]...), Delivery{Seq: 5, Slot: slot5, Frame: frame5})
	framesBefore := deliveredFrames()
	if err := s.DeliverBatch("sender-a", mixed); err != nil {
		t.Fatal(err)
	}
	if got := s.Ring().Ingested(); got != 5 {
		t.Fatalf("mixed batch ingested %d records, want 5", got)
	}
	if got := deliveredFrames() - framesBefore; got != 1 {
		t.Fatalf("mixed batch counted %d delivered frames, want the 1 fresh one", got)
	}
	// The advanced mark is durable: a rebuilt shard over the same store
	// still drops everything at or below it.
	store2, err := tweetdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewLocalShard(store2, live.Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.DeliverBatch("sender-a", mixed); err != nil {
		t.Fatal(err)
	}
	if got := store2.Count(); got != 5 {
		t.Fatalf("post-restart redelivery stored %d records, want 5", got)
	}
}

func deliveredFrames() int64 {
	return obs.Def.Snapshot().Int("geomob_shard_delivered_frames_total")
}
