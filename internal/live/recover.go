package live

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"geomob/internal/obs"
	"geomob/internal/tweetdb"
)

// Boot-recovery metrics (DESIGN.md §12): cumulative across every ring
// recovered in this process (cluster shards recover one ring per slot).
var (
	mRecovRestored   = obs.Def.Counter("geomob_recovery_restored_buckets_total", "Buckets restored intact from snapshot files at boot.")
	mRecovBackfilled = obs.Def.Counter("geomob_recovery_backfilled_buckets_total", "Buckets degraded to a windowed cold store backfill at boot.")
	mRecovSnapErrors = obs.Def.Counter("geomob_recovery_snapshot_errors_total", "Snapshot bucket files rejected during recovery.")
	mRecovFullScans  = obs.Def.Counter("geomob_recovery_full_rescans_total", "Boot recoveries that fell back to a full store rescan.")
	mRecovTailRecs   = obs.Def.Counter("geomob_recovery_tail_records_total", "Store-tail records replayed into rings at boot.")
	mRecovSeconds    = obs.Def.Histogram("geomob_recovery_seconds", "Latency of one ring recovery at boot.", nil)
)

// RecoverOpts tune Recover.
type RecoverOpts struct {
	// Keep filters records by author — cluster slot rings pass their
	// placement predicate so a shared store hydrates each ring with only
	// its own users. Nil keeps every record.
	Keep func(userID int64) bool
	// NoFullScan makes Recover report a needed full rescan (stats
	// FullRescan) without performing it, so a caller owning several
	// rings over one store can batch all their full rescans into a
	// single scan.
	NoFullScan bool
}

// RecoveryStats describes what a boot recovery actually did — the
// numbers /healthz surfaces and the restart smoke test asserts on.
type RecoveryStats struct {
	// Restored counts buckets loaded intact from snapshot files;
	// Backfilled counts buckets degraded to a windowed cold store scan
	// by a missing/corrupt/mismatched file; SnapErrors counts those
	// files. FullRescan reports the whole snapshot was unusable (no,
	// corrupt or older-version manifest, foreign shape, or covered
	// segments missing from the store) and the ring was hydrated by a
	// full store scan.
	Restored   int  `json:"restored"`
	Backfilled int  `json:"backfilled"`
	SnapErrors int  `json:"snapshot_errors"`
	FullRescan bool `json:"full_rescan"`
	// TailSegments/TailRecords describe the manifest tail — segments
	// appended after the last snapshot commit — replayed at boot.
	TailSegments int   `json:"tail_segments"`
	TailRecords  int64 `json:"tail_records"`
}

// Merge accumulates another ring's recovery into s (cluster shards sum
// their per-slot recoveries for health reporting).
func (s *RecoveryStats) Merge(o RecoveryStats) {
	s.Restored += o.Restored
	s.Backfilled += o.Backfilled
	s.SnapErrors += o.SnapErrors
	s.FullRescan = s.FullRescan || o.FullRescan
	s.TailSegments += o.TailSegments
	s.TailRecords += o.TailRecords
}

// Recover hydrates an empty ring from its snapshot directory and store
// (DESIGN.md §11). The state machine per boot:
//
//  1. Load the snapshot manifest. Missing/corrupt/older-version/
//     foreign-shape manifest, or covered segments absent from the store
//     catalogue (a compaction ran) → full cold backfill, exactly like a
//     node that never snapshotted.
//  2. Restore every bucket file that decodes and validates; any
//     failure marks just that bucket for cold backfill.
//  3. Replay the tail — store segments not covered by the manifest —
//     routing records around the failed buckets.
//  4. Cold-backfill each failed bucket with a windowed, segment-pruned
//     store scan.
//
// Every path converges on a ring whose folds are bit-identical to a
// cold Study.Execute over the store; corruption only ever costs time.
func Recover(a *Aggregator, store *tweetdb.Store, snaps *SnapshotStore, opts RecoverOpts) (RecoveryStats, error) {
	t0 := time.Now()
	st, err := recoverRing(a, store, snaps, opts)
	mRecovRestored.Add(int64(st.Restored))
	mRecovBackfilled.Add(int64(st.Backfilled))
	mRecovSnapErrors.Add(int64(st.SnapErrors))
	mRecovTailRecs.Add(st.TailRecords)
	if st.FullRescan {
		mRecovFullScans.Inc()
	}
	mRecovSeconds.Observe(time.Since(t0).Seconds())
	return st, err
}

func recoverRing(a *Aggregator, store *tweetdb.Store, snaps *SnapshotStore, opts RecoverOpts) (RecoveryStats, error) {
	st := RecoveryStats{}
	man, err := snaps.loadManifest()
	usable := err == nil &&
		man.ShapeHash == fmt.Sprintf("%016x", a.hash) &&
		man.Width == a.width
	segments := store.Segments()
	current := make(map[string]bool, len(segments))
	for _, m := range segments {
		current[m.File] = true
	}
	if usable {
		for _, f := range man.Covered {
			if !current[f] {
				// A covered segment vanished (compaction rewrote the
				// catalogue): the tail can no longer be identified, so
				// the snapshot cannot be trusted not to double-count.
				usable = false
				break
			}
		}
	}
	if !usable {
		st.FullRescan = true
		if opts.NoFullScan {
			return st, nil
		}
		n, err := backfillFiltered(a, store, tweetdb.Query{}, opts.Keep, nil, nil)
		st.TailRecords = n
		return st, err
	}

	covered := make(map[string]bool, len(man.Covered))
	for _, f := range man.Covered {
		covered[f] = true
	}
	// Bucket files are read, checked and decoded on every processor (the
	// decoder only reads the immutable shape) and installed in manifest
	// order, so the ring's revisions do not depend on scheduling.
	decoded := make([]*bucketSnapshot, len(man.Buckets))
	runTasks(len(man.Buckets), func(i int) {
		bm := man.Buckets[i]
		blob, err := os.ReadFile(filepath.Join(snaps.dir, bm.File))
		if err != nil {
			return
		}
		if bs, err := a.decodeBucketSnapshot(blob); err == nil && bs.Idx == bm.Idx && bs.Count() == bm.Count {
			decoded[i] = bs
		}
	})
	failed := map[int64]bool{}
	for i, bm := range man.Buckets {
		if decoded[i] == nil {
			failed[bm.Idx] = true
			st.SnapErrors++
			continue
		}
		a.restoreBucket(decoded[i])
		st.Restored++
	}

	var tail []string
	for _, m := range segments {
		if !covered[m.File] {
			tail = append(tail, m.File)
		}
	}
	if len(tail) > 0 {
		st.TailSegments = len(tail)
		n, err := backfillFiltered(a, store, tweetdb.Query{Files: tail}, opts.Keep, failed, nil)
		st.TailRecords = n
		if err != nil {
			return st, err
		}
	}
	for _, bm := range man.Buckets {
		idx := bm.Idx
		if !failed[idx] {
			continue
		}
		q := tweetdb.Query{FromTS: idx * a.width}
		if hi := (idx + 1) * a.width; hi > 0 {
			q.ToTS = hi
		}
		if _, err := backfillFiltered(a, store, q, opts.Keep, nil, &idx); err != nil {
			return st, err
		}
		st.Backfilled++
	}
	return st, nil
}

// backfillFiltered scans the store with q and routes matching records
// into the ring, dropping rows whose author fails keep, whose bucket is
// in skip, or — when only is non-nil — whose bucket is not *only. It
// returns how many records were routed.
func backfillFiltered(a *Aggregator, store *tweetdb.Store, q tweetdb.Query, keep func(int64) bool, skip map[int64]bool, only *int64) (int64, error) {
	return BackfillRouted(store, q, []*Aggregator{a}, func(user, ts int64) int {
		idx := a.bucketIdx(ts)
		if keep != nil && !keep(user) || skip[idx] || only != nil && idx != *only {
			return -1
		}
		return 0
	})
}
