package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"path/filepath"

	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Shard-side series (DESIGN.md §12). Fold latency covers one Partials
// call over its whole slot set; deliver latency covers one replicated
// frame batch landing durably.
var (
	mShardFoldSecs    = obs.Def.Histogram("geomob_shard_fold_seconds", "Latency of one shard Partials fold over its requested slots.", nil)
	mShardFolds       = obs.Def.Counter("geomob_shard_folds_total", "Shard Partials folds served.")
	mShardDeliverSecs = obs.Def.Histogram("geomob_shard_deliver_seconds", "Latency of one replicated frame batch landing durably on a shard.", nil)
	mShardFrames      = obs.Def.Counter("geomob_shard_delivered_frames_total", "Fresh replicated frames applied by shards (duplicates excluded).")
)

// Shard is one cluster member behind a uniform interface: the
// coordinator delivers slot-addressed replicated frames to it and
// scatters slot-set fold requests at it, without knowing whether the
// member lives in-process (LocalShard) or behind the internal HTTP API
// (HTTPShard → Node).
type Shard interface {
	// DeliverBatch applies replicated batch frames from one sender, each
	// for its placement slot, exactly once and in one durable commit. A
	// lane hands over whatever it has staged, so the frames carry
	// ascending sequence numbers; those at or below the shard's durable
	// high-water mark for the sender are acknowledged without
	// re-applying, which makes spool replay and redelivery after an
	// ambiguous failure idempotent. An empty sender disables
	// deduplication. Delivery is synchronous: success means every frame
	// is durable.
	DeliverBatch(sender string, ds []Delivery) error
	// Partials folds the shard's materialised bucket partials covering
	// req's window over the requested placement slots (non-empty,
	// strictly ascending) into exactly one partial. ctx carries the
	// query's trace (obs.TraceFrom); remote transports propagate its ID
	// via the obs.TraceHeader HTTP header.
	Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error)
	// Coverage fingerprints the shard's bucket coverage of req's window
	// over the requested slots — the coordinator's cache key component
	// that moves exactly when an ingest lands in a covered bucket.
	Coverage(ctx context.Context, req core.Request, slots []int) (string, error)
	// Health reports the shard's liveness counters; an error marks the
	// shard unreachable (degraded in the coordinator's /healthz).
	Health() (ShardHealth, error)
}

// Delivery is one spooled frame inside a batched delivery.
type Delivery struct {
	Seq   uint64
	Slot  int
	Frame []byte
}

// ShardHealth is one shard's liveness report.
type ShardHealth struct {
	// Tweets is the durable record count (0 without a store); Ingested
	// counts records accepted into the bucket rings since boot.
	Tweets   int64 `json:"tweets"`
	Ingested int64 `json:"ingested"`
	// Buckets and Builds describe the rings: live buckets and partial
	// materialisations performed, summed over the shard's slots.
	Buckets int   `json:"buckets"`
	Builds  int64 `json:"builds"`
	// Scans counts store segment scans — the number the scatter-gather
	// exactness tests pin to zero on warm folds.
	Scans int64 `json:"scans"`
	// Slots counts placement slots holding at least one record here.
	Slots int `json:"slots"`
	// Snapshot and Recovery report the durable-snapshot state: what is
	// on disk now, and what the last boot did (restored vs backfilled
	// buckets, tail replay size). Nil on shards without a snapshot dir.
	Snapshot *live.SnapshotStats `json:"snapshot,omitempty"`
	Recovery *live.RecoveryStats `json:"recovery,omitempty"`
}

// LocalShard is an in-process cluster member: one live bucket ring per
// placement slot — all stamped from a single shared assignment Shape —
// optionally in lockstep with one durable store. Slot-granular rings
// are what make replicated reads exact: a fold over any subset of
// slots never mixes users from slots another replica serves.
type LocalShard struct {
	shape *live.Shape
	store *tweetdb.Store // nil for a ring-only shard

	mu   sync.Mutex
	aggs [ring.Slots]*live.Aggregator
	// hwm holds the highest applied delivery sequence per sender,
	// persisted in the store manifest's meta table atomically with each
	// applied batch (memory-only without a store).
	hwm map[string]uint64
	// snaps holds one snapshot directory per placement slot when the
	// shard was opened with a snapshot dir; recovery records what the
	// boot hydration did with them.
	snaps    [ring.Slots]*live.SnapshotStore
	hasSnaps bool
	recovery live.RecoveryStats
}

const hwmMetaPrefix = "hwm:"

// NewLocalShard builds a shard over the store (nil for a ring-only
// shard) with the given ring options. When a store is present its
// records are backfilled into the slot rings — one scan at boot, then
// zero forever — and the per-sender delivery high-water marks are
// reloaded from the manifest meta table, so replayed spool frames
// deduplicate across restarts.
func NewLocalShard(store *tweetdb.Store, opts live.Options) (*LocalShard, error) {
	return NewLocalShardSnap(store, opts, "")
}

// NewLocalShardSnap is NewLocalShard plus a snapshot directory: each
// placement slot gets its own snapshot store under snapDir/slot-NN, and
// boot hydration runs the snapshot recovery state machine per slot —
// intact buckets restore from their files, only the segment tail
// replays, and any slot whose snapshot is unusable joins one combined
// full rescan instead of each paying for its own. An empty snapDir is
// the classic full-rescan boot.
func NewLocalShardSnap(store *tweetdb.Store, opts live.Options, snapDir string) (*LocalShard, error) {
	shape, err := live.NewShape(opts)
	if err != nil {
		return nil, err
	}
	if snapDir != "" && store == nil {
		return nil, fmt.Errorf("cluster: snapshot dir requires a store")
	}
	s := &LocalShard{shape: shape, store: store, hwm: map[string]uint64{}}
	for k := range s.aggs {
		s.aggs[k] = shape.NewAggregator()
	}
	if snapDir != "" {
		s.hasSnaps = true
		for k := range s.snaps {
			st, err := live.OpenSnapshotStore(filepath.Join(snapDir, fmt.Sprintf("slot-%02d", k)))
			if err != nil {
				return nil, err
			}
			s.snaps[k] = st
		}
	}
	if store != nil {
		if err := s.hydrate(); err != nil {
			return nil, fmt.Errorf("cluster: backfill shard rings: %w", err)
		}
		for key, val := range store.MetaPrefix(hwmMetaPrefix) {
			seq, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: corrupt delivery mark %s=%q: %w", key, val, err)
			}
			s.hwm[key[len(hwmMetaPrefix):]] = seq
		}
	}
	return s, nil
}

// hydrate fills the slot rings from the store at boot. Without
// snapshots every slot joins one full scan; with them each slot first
// runs its own recovery (restore + tail replay, filtered to its users)
// and only the slots whose snapshots were unusable share the rescan.
func (s *LocalShard) hydrate() error {
	var rescan []int
	if !s.hasSnaps {
		for k := 0; k < ring.Slots; k++ {
			rescan = append(rescan, k)
		}
	} else {
		for k := 0; k < ring.Slots; k++ {
			k := k
			st, err := live.Recover(s.aggs[k], s.store, s.snaps[k], live.RecoverOpts{
				Keep:       func(user int64) bool { return ring.SlotOf(user) == k },
				NoFullScan: true,
			})
			if err != nil {
				return fmt.Errorf("slot %d: %w", k, err)
			}
			s.recovery.Merge(st)
			if st.FullRescan {
				rescan = append(rescan, k)
			}
		}
	}
	if len(rescan) == 0 {
		return nil
	}
	return s.backfillSlots(rescan)
}

// backfillSlots replays the store into the named slot rings, routing
// each record by its user's placement slot and dropping rows owned by
// slots not in the set — one scan no matter how many slots need it.
func (s *LocalShard) backfillSlots(slots []int) error {
	var want [ring.Slots]bool
	for _, k := range slots {
		want[k] = true
	}
	_, err := live.BackfillRouted(s.store, tweetdb.Query{}, s.aggs[:], func(user, _ int64) int {
		if k := ring.SlotOf(user); want[k] {
			return k
		}
		return -1
	})
	return err
}

// Store exposes the shard's store (nil for ring-only shards).
func (s *LocalShard) Store() *tweetdb.Store { return s.store }

// Shape exposes the shared assignment machinery.
func (s *LocalShard) Shape() *live.Shape { return s.shape }

// ResidentBytes sums the heap the slot rings hold, by kind.
func (s *LocalShard) ResidentBytes() live.ResidentBytes {
	var sum live.ResidentBytes
	for _, a := range s.aggs {
		sum.Add(a.ResidentBytes())
	}
	return sum
}

// Ingested sums records accepted into the slot rings.
func (s *LocalShard) Ingested() int64 {
	var n int64
	for _, a := range s.aggs {
		n += a.Ingested()
	}
	return n
}

// Builds sums partial materialisations over the slot rings.
func (s *LocalShard) Builds() int64 {
	var n int64
	for _, a := range s.aggs {
		n += a.Builds()
	}
	return n
}

// Buckets sums live buckets over the slot rings.
func (s *LocalShard) Buckets() int {
	n := 0
	for _, a := range s.aggs {
		n += a.Buckets()
	}
	return n
}

// DeliverBatch implements Shard: the fresh frames' batches are appended
// to the store together with the sender's advanced high-water mark in one
// atomic manifest commit, then resolved and appended to their slots'
// rings; a crash between the two is healed by the boot backfill. The
// mark advances to the batch's top sequence, which is sound because
// lanes are strict FIFO per sender — the sequences in one drain are
// contiguous-from-pending and ascending, so acknowledging the top
// acknowledges them all. Duplicate frames (at or below the current mark)
// are dropped before the commit.
func (s *LocalShard) DeliverBatch(sender string, ds []Delivery) error {
	t0 := time.Now()
	batches := make([]*tweet.Batch, len(ds))
	for i, d := range ds {
		if d.Slot < 0 || d.Slot >= ring.Slots {
			return fmt.Errorf("%w: slot %d out of range", live.ErrBadInput, d.Slot)
		}
		b := &tweet.Batch{}
		if err := tweet.NewBatchReader(bytes.NewReader(d.Frame), int64(len(d.Frame))+1).Read(b); err != nil {
			return fmt.Errorf("%w: decode frame seq %d: %w", live.ErrBadInput, d.Seq, err)
		}
		if err := b.Validate(); err != nil {
			return fmt.Errorf("cluster: frame seq %d: %w", d.Seq, err)
		}
		batches[i] = b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	combined := &tweet.Batch{}
	var parts [ring.Slots]*tweet.Batch
	var maxSeq uint64
	fresh := 0
	for i, d := range ds {
		if sender != "" && d.Seq <= s.hwm[sender] {
			continue
		}
		fresh++
		maxSeq = max(maxSeq, d.Seq)
		if parts[d.Slot] == nil {
			parts[d.Slot] = &tweet.Batch{}
		}
		combined.AppendBatch(batches[i])
		parts[d.Slot].AppendBatch(batches[i])
	}
	if fresh == 0 {
		return nil
	}
	if s.store != nil && combined.Len() > 0 {
		var meta map[string]string
		if sender != "" {
			meta = map[string]string{hwmMetaPrefix + sender: strconv.FormatUint(maxSeq, 10)}
		}
		if err := s.store.AppendBatchMeta(combined, meta); err != nil {
			return err
		}
	}
	for k, p := range parts {
		if p != nil {
			if err := s.aggs[k].IngestBatch(p); err != nil {
				return fmt.Errorf("slot %d: %w", k, err)
			}
		}
	}
	if sender != "" {
		s.hwm[sender] = maxSeq
	}
	mShardFrames.Add(int64(fresh))
	mShardDeliverSecs.Observe(time.Since(t0).Seconds())
	return nil
}

// validSlots checks a requested slot set: non-empty, in range and
// strictly ascending, so no slot ring is folded or counted twice.
func validSlots(slots []int) error {
	if len(slots) == 0 {
		return fmt.Errorf("cluster: empty slot set")
	}
	for i, k := range slots {
		if k < 0 || k >= ring.Slots {
			return fmt.Errorf("cluster: slot %d out of range", k)
		}
		if i > 0 && k <= slots[i-1] {
			return fmt.Errorf("cluster: slot %d follows slot %d; slot sets ascend strictly", k, slots[i-1])
		}
	}
	return nil
}

// rings returns the slot rings of a valid slot set, in slot order.
func (s *LocalShard) rings(slots []int) []*live.Aggregator {
	out := make([]*live.Aggregator, len(slots))
	for i, k := range slots {
		out[i] = s.aggs[k]
	}
	return out
}

// Partials implements Shard: the requested slot rings fold, planned
// once, into one partial.
func (s *LocalShard) Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error) {
	if err := validSlots(slots); err != nil {
		return nil, err
	}
	defer obs.TraceFrom(ctx).StartStage("shard_fold")()
	t0 := time.Now()
	p, err := live.FoldRings(req, s.rings(slots))
	if err != nil {
		return nil, err
	}
	mShardFolds.Inc()
	mShardFoldSecs.Observe(time.Since(t0).Seconds())
	return []*live.ShardPartial{p}, nil
}

// Coverage implements Shard: one key over the requested slot rings,
// each fed into one hash behind its slot index, so it moves exactly when
// any requested slot's covered buckets change.
func (s *LocalShard) Coverage(_ context.Context, req core.Request, slots []int) (string, error) {
	if err := validSlots(slots); err != nil {
		return "", err
	}
	return live.CoverageKeyRings(req, slots, s.rings(slots))
}

// Snapshot commits every slot ring's changed file groups to the shard's
// snapshot directories. All captures and the covered-segment catalogue
// are taken under the delivery lock, so each slot's manifest names
// exactly the segments whose records its ring reflects. Returns the
// summed stats over the slots.
func (s *LocalShard) Snapshot() (live.SnapshotStats, error) {
	if !s.hasSnaps {
		return live.SnapshotStats{}, fmt.Errorf("cluster: shard has no snapshot dir")
	}
	s.mu.Lock()
	var caps [ring.Slots]*live.RingCapture
	for k := range s.aggs {
		c, err := s.aggs[k].Capture()
		if err != nil {
			s.mu.Unlock()
			return live.SnapshotStats{}, fmt.Errorf("cluster: snapshot slot %d: %w", k, err)
		}
		caps[k] = c
	}
	var covered []string
	for _, m := range s.store.Segments() {
		covered = append(covered, m.File)
	}
	s.mu.Unlock()
	total := live.SnapshotStats{}
	for k := range caps {
		st, err := s.snaps[k].Commit(caps[k], covered)
		if err != nil {
			return total, fmt.Errorf("cluster: snapshot slot %d: %w", k, err)
		}
		s.aggs[k].MarkSnapshotted(caps[k])
		total.Merge(st)
	}
	return total, nil
}

// SnapshotStats sums the per-slot snapshot directories' stats (zero
// value without a snapshot dir).
func (s *LocalShard) SnapshotStats() live.SnapshotStats {
	total := live.SnapshotStats{}
	if !s.hasSnaps {
		return total
	}
	for k := range s.snaps {
		total.Merge(s.snaps[k].Stats())
	}
	return total
}

// Recovery reports what boot hydration did (zero value without a
// snapshot dir).
func (s *LocalShard) Recovery() live.RecoveryStats { return s.recovery }

// Health implements Shard.
func (s *LocalShard) Health() (ShardHealth, error) {
	var h ShardHealth
	for _, a := range s.aggs {
		h.Ingested += a.Ingested()
		h.Builds += a.Builds()
		h.Buckets += a.Buckets()
		if a.Ingested() > 0 {
			h.Slots++
		}
	}
	if s.store != nil {
		h.Tweets = s.store.Count()
		h.Scans = s.store.ScanCount()
	}
	if s.hasSnaps {
		snap := s.SnapshotStats()
		rec := s.recovery
		h.Snapshot = &snap
		h.Recovery = &rec
	}
	return h, nil
}
