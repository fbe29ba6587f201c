package live

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweetdb"
)

// Boot-recovery metrics (DESIGN.md §12): cumulative across every ring
// recovered in this process.
var (
	mRecovRestored   = obs.Def.Counter("geomob_recovery_restored_buckets_total", "Buckets whose partials were restored intact from snapshot files at boot.")
	mRecovBackfilled = obs.Def.Counter("geomob_recovery_backfilled_buckets_total", "Buckets degraded to a windowed cold store backfill at boot.")
	mRecovSnapErrors = obs.Def.Counter("geomob_recovery_snapshot_errors_total", "Snapshot files rejected during recovery.")
	mRecovFullScans  = obs.Def.Counter("geomob_recovery_full_rescans_total", "Boot recoveries that fell back to a full store rescan.")
	mRecovTailRecs   = obs.Def.Counter("geomob_recovery_tail_records_total", "Store-tail records replayed into rings at boot.")
	mRecovSeconds    = obs.Def.Histogram("geomob_recovery_seconds", "Latency of one ring recovery at boot.", nil)
)

// RecoverOpts tune Recover. Recovery has no knobs today; the type keeps
// the call's shape for callers.
type RecoverOpts struct{}

// RecoveryStats describes what a boot recovery actually did — the
// numbers /healthz surfaces and the restart smoke test asserts on.
type RecoveryStats struct {
	// Restored counts buckets whose partials were installed intact from
	// snapshot files; Backfilled counts buckets degraded to a windowed
	// cold store scan by a missing/corrupt/mismatched file; SnapErrors
	// counts those files. FullRescan reports the whole snapshot was
	// unusable (no, corrupt or older-version manifest, foreign shape, or
	// covered segments missing from the store) and the ring was hydrated
	// by a full store scan.
	Restored   int  `json:"restored"`
	Backfilled int  `json:"backfilled"`
	SnapErrors int  `json:"snapshot_errors"`
	FullRescan bool `json:"full_rescan"`
	// TailSegments/TailRecords describe the manifest tail — segments
	// appended after the last snapshot commit — replayed at boot.
	TailSegments int   `json:"tail_segments"`
	TailRecords  int64 `json:"tail_records"`
}

// Recover hydrates an empty ring from its snapshot directory and store
// (DESIGN.md §11). The state machine per boot:
//
//  1. Load the snapshot manifest. Missing/corrupt/older-version/
//     foreign-shape manifest, or covered segments absent from the store
//     catalogue (a compaction ran) → full cold backfill, exactly like a
//     node that never snapshotted.
//  2. Install the partials and merges of every file that decodes and
//     validates, and restamp the restored groups; any failure marks just
//     that file's group for cold backfill. A restored bucket is
//     store-only: it holds its partial, and its records stay in the
//     covered segments until a reader needs them (reloadLocked).
//  3. Replay the tail — store segments not covered by the manifest —
//     routing records around the failed groups.
//  4. Cold-backfill each failed group with a windowed, segment-pruned
//     store scan.
//
// Every path converges on a ring whose folds are bit-identical to a
// cold Study.Execute over the store; corruption only ever costs time.
func Recover(a *Aggregator, store *tweetdb.Store, snaps *SnapshotStore, _ RecoverOpts) (RecoveryStats, error) {
	t0 := time.Now()
	st, err := recoverRing(a, store, snaps)
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

func recoverRing(a *Aggregator, store *tweetdb.Store, snaps *SnapshotStore) (RecoveryStats, error) {
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
		n, err := Backfill(a, store)
		st.TailRecords = n
		return st, err
	}

	covered := make(map[string]bool, len(man.Covered))
	for _, f := range man.Covered {
		covered[f] = true
	}
	// Files are read, checked and decoded on every processor (the decoder
	// only reads the immutable shape) and installed in manifest order, so
	// the ring's revisions do not depend on scheduling.
	decoded := make([]*snapFile, len(man.Files))
	runTasks(len(man.Files), func(i int) {
		fm := man.Files[i]
		blob, err := os.ReadFile(filepath.Join(snaps.dir, fm.File))
		if err != nil || int64(len(blob)) != fm.Bytes {
			return
		}
		if f, err := a.decodeSnapFile(blob); err == nil && f.group == fm.Group {
			if n, records := f.buckets(); n == fm.Buckets && records == fm.Records {
				decoded[i] = f
			}
		}
	})
	failed := map[int64]bool{}
	var intact []*snapFile
	for i, fm := range man.Files {
		if decoded[i] == nil {
			failed[fm.Group] = true
			st.SnapErrors++
			continue
		}
		intact = append(intact, decoded[i])
	}
	st.Restored = a.restore(intact, failed, &restoreOrigin{store: store, files: append([]string{}, man.Covered...)})
	span := a.fileSpan()
	group := func(ts int64) int64 { return floorDiv(a.bucketIdx(ts), span) }

	var tail []string
	for _, m := range segments {
		if !covered[m.File] {
			tail = append(tail, m.File)
		}
	}
	if len(tail) > 0 {
		st.TailSegments = len(tail)
		n, err := backfill(a, store, tweetdb.Query{Files: tail}, func(ts int64) bool { return !failed[group(ts)] })
		st.TailRecords = n
		if err != nil {
			return st, err
		}
	}
	for _, fm := range man.Files {
		g := fm.Group
		if !failed[g] {
			continue
		}
		q := tweetdb.Query{FromTS: g * span * a.width}
		if hi := (g + 1) * span * a.width; hi > 0 {
			q.ToTS = hi
		}
		if _, err := backfill(a, store, q, func(ts int64) bool { return group(ts) == g }); err != nil {
			return st, err
		}
		st.Backfilled += fm.Buckets
	}
	return st, nil
}

// restore installs the partials of intact snapshot files into an empty
// ring and returns how many buckets it restored. Buckets go in ascending
// file order, each touched — the next ring revision, its groups
// restamped — then given its partial, clean (already durable) and
// store-only; then each merge whose group lies wholly in intact files
// and whose record count matches its members' is cached under its
// group's new stamp, also clean. A group a failed file overlaps keeps no
// merge: its backfill moves the stamp anyway.
func (a *Aggregator) restore(files []*snapFile, failed map[int64]bool, origin *restoreOrigin) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.origin = origin
	span, n, records, held := a.fileSpan(), 0, int64(0), uint32(0)
	for _, f := range files {
		for _, sp := range f.parts {
			if sp.factor != 1 {
				continue
			}
			for _, u := range sp.part.users {
				held |= 1 << ring.SlotOf(u.id)
			}
			b := a.bucketLocked(sp.idx)
			a.touchLocked(sp.idx, b)
			b.snapRev = b.rev
			b.stored, b.part = &storedRows{part: sp.part, mids: sp.mids}, sp.part
			a.resPartials.Add(b.partialBytes())
			n++
			records += sp.part.tweets
		}
	}
	for _, f := range files {
		for _, sp := range f.parts {
			t := a.tierOf(sp.factor)
			if t == nil || !a.mergeMatchesLocked(t, sp, span, failed) {
				continue
			}
			stamp := t.revs[sp.idx]
			a.setGroupLocked(t, sp.idx, &rollupGroup{stamp: stamp, part: sp.part})
			t.snapped[sp.idx] = stamp
		}
	}
	a.storeOnly.Add(int64(n))
	a.held.Or(held)
	a.ingested.Add(records)
	mRingRecords.Add(records)
	return n
}

// tierOf returns the rollup tier of a grouping factor, nil for none.
func (a *Aggregator) tierOf(factor int64) *rollupTier {
	for _, t := range a.tiers {
		if t.factor == factor {
			return t
		}
	}
	return nil
}

// mergeMatchesLocked reports whether a restored merge of group sp.idx in
// tier t stands for the restored ring: no failed file overlaps the
// group, and its records are its restored members'. Caller holds a.mu.
func (a *Aggregator) mergeMatchesLocked(t *rollupTier, sp snapPart, span int64, failed map[int64]bool) bool {
	lo, hi := sp.idx*t.factor, (sp.idx+1)*t.factor
	for g := floorDiv(lo, span); g < floorDiv(hi, span); g++ {
		if failed[g] {
			return false
		}
	}
	m0, _ := slices.BinarySearch(a.idxs, lo)
	m1, _ := slices.BinarySearch(a.idxs, hi)
	var records int64
	for _, idx := range a.idxs[m0:m1] {
		records += a.buckets[idx].part.tweets
	}
	return m1-m0 >= 2 && records == sp.part.tweets
}
