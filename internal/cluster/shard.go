package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"time"

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
	// over the requested slots — the coordinator's cache key component,
	// which moves whenever an ingest of a requested slot lands in a
	// covered bucket.
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
	// counts records accepted into the bucket ring since boot.
	Tweets   int64 `json:"tweets"`
	Ingested int64 `json:"ingested"`
	// Buckets and Builds describe the ring: live buckets and partial
	// materialisations performed.
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

// LocalShard is an in-process cluster member: one live bucket ring
// holding the users of every placement slot delivered to it, optionally
// in lockstep with one durable store. Replicated reads stay exact
// because a fold over a subset of slots skips the other slots' users, so
// it never counts a user another replica serves. A single node is one
// LocalShard fed straight through its Ingestor.
type LocalShard struct {
	store *tweetdb.Store // nil for a ring-only shard
	agg   *live.Aggregator
	// ing is the shard's one write path: deliveries commit through it.
	ing *live.Ingestor
	// snaps is the shard's snapshot directory (nil without one); recovery
	// records what the boot hydration did with it.
	snaps    *live.SnapshotStore
	recovery live.RecoveryStats

	mu sync.Mutex
	// hwm holds the highest applied delivery sequence per sender,
	// persisted in the store manifest's meta table atomically with each
	// applied batch (memory-only without a store).
	hwm map[string]uint64
}

const hwmMetaPrefix = "hwm:"

// NewLocalShard builds a shard over the store (nil for a ring-only
// shard) with the given ring options. When a store is present its
// records are backfilled into the ring — one scan at boot, then zero
// forever — and the per-sender delivery high-water marks are reloaded
// from the manifest meta table, so replayed spool frames deduplicate
// across restarts.
func NewLocalShard(store *tweetdb.Store, opts live.Options) (*LocalShard, error) {
	sh, err := live.NewShape(opts)
	if err != nil {
		return nil, err
	}
	return NewLocalShardSnap(store, sh, "")
}

// NewLocalShardSnap is NewLocalShard over a shared Shape plus a snapshot
// directory: the ring's snapshot store lives in snapDir, and boot
// hydration runs the snapshot recovery state machine over it — intact
// buckets restore from their files and only the segment tail replays. An
// empty snapDir is the classic full-rescan boot.
func NewLocalShardSnap(store *tweetdb.Store, sh *live.Shape, snapDir string) (*LocalShard, error) {
	if snapDir != "" && store == nil {
		return nil, fmt.Errorf("cluster: snapshot dir requires a store")
	}
	agg := sh.NewAggregator()
	ing, err := live.NewIngestor(store, agg, 0)
	if err != nil {
		return nil, err
	}
	s := &LocalShard{store: store, agg: agg, ing: ing, hwm: map[string]uint64{}}
	if snapDir != "" {
		if s.snaps, err = live.OpenSnapshotStore(snapDir); err != nil {
			return nil, err
		}
	}
	if store == nil {
		return s, nil
	}
	if s.snaps == nil {
		_, err = live.Backfill(agg, store)
	} else {
		s.recovery, err = live.Recover(agg, store, s.snaps, live.RecoverOpts{})
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: hydrate shard ring: %w", err)
	}
	for key, val := range store.MetaPrefix(hwmMetaPrefix) {
		seq, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: corrupt delivery mark %s=%q: %w", key, val, err)
		}
		s.hwm[key[len(hwmMetaPrefix):]] = seq
	}
	return s, nil
}

// Store exposes the shard's store (nil for ring-only shards).
func (s *LocalShard) Store() *tweetdb.Store { return s.store }

// Ring exposes the shard's bucket ring: its counters and resident bytes.
func (s *LocalShard) Ring() *live.Aggregator { return s.agg }

// Ingestor exposes the shard's write path, for a single node's streaming
// ingest.
func (s *LocalShard) Ingestor() *live.Ingestor { return s.ing }

// Snapshots exposes the shard's snapshot store (nil without one).
func (s *LocalShard) Snapshots() *live.SnapshotStore { return s.snaps }

// DeliverBatch implements Shard: the fresh frames' batches commit through
// the shard's Ingestor together with the sender's advanced high-water
// mark, so records and mark land in one atomic manifest commit before
// the ring sees them; a crash between the two is healed by the boot
// backfill. The mark advances to
// the batch's top sequence, which is sound because lanes are strict FIFO
// per sender — the sequences in one drain are contiguous-from-pending and
// ascending, so acknowledging the top acknowledges them all. Duplicate
// frames (at or below the current mark) are dropped before the commit. A
// frame holding a record of a user outside its slot is refused whole: a
// restart places records by their users, so a fold over some slots must
// never have seen them placed otherwise. Each frame is validated once,
// on decode, and a delivery holding one invalid frame is refused whole
// before anything is stored.
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
			return fmt.Errorf("%w: frame seq %d: %w", live.ErrBadInput, d.Seq, err)
		}
		for _, u := range b.UserID {
			if k := ring.SlotOf(u); k != d.Slot {
				return fmt.Errorf("%w: frame seq %d for slot %d holds user %d of slot %d", live.ErrBadInput, d.Seq, d.Slot, u, k)
			}
		}
		batches[i] = b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	combined := &tweet.Batch{}
	var maxSeq uint64
	fresh := 0
	for i, d := range ds {
		if sender != "" && d.Seq <= s.hwm[sender] {
			continue
		}
		fresh++
		maxSeq = max(maxSeq, d.Seq)
		combined.AppendBatch(batches[i])
	}
	if fresh == 0 {
		return nil
	}
	if combined.Len() > 0 {
		var meta map[string]string
		if sender != "" {
			meta = map[string]string{hwmMetaPrefix + sender: strconv.FormatUint(maxSeq, 10)}
		}
		if err := s.ing.Commit(combined, meta); err != nil {
			return err
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
// strictly ascending, so no slot's users are folded or counted twice.
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

// Partials implements Shard: the ring folds once into one partial over
// the requested slots' users.
func (s *LocalShard) Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error) {
	if err := validSlots(slots); err != nil {
		return nil, err
	}
	defer obs.TraceFrom(ctx).StartStage("shard_fold")()
	t0 := time.Now()
	p, err := s.agg.FoldSlots(req, slots)
	if err != nil {
		return nil, err
	}
	mShardFolds.Inc()
	mShardFoldSecs.Observe(time.Since(t0).Seconds())
	return []*live.ShardPartial{p}, nil
}

// Coverage implements Shard: the ring's key for req's window. It moves
// whenever a covered bucket changes, whichever slots' users changed it —
// more often than the requested slots alone need, never less.
func (s *LocalShard) Coverage(_ context.Context, req core.Request, slots []int) (string, error) {
	if err := validSlots(slots); err != nil {
		return "", err
	}
	return s.agg.CoverageKeyRequest(req)
}

// Snapshot commits the ring's changed file groups to the shard's
// snapshot directory through the Ingestor, whose lock orders every store
// append before its ring route, so the manifest names exactly the
// segments whose records the ring reflects.
func (s *LocalShard) Snapshot() (live.SnapshotStats, error) {
	if s.snaps == nil {
		return live.SnapshotStats{}, fmt.Errorf("cluster: shard has no snapshot dir")
	}
	return s.ing.Snapshot(s.snaps)
}

// Recovery reports what boot hydration did (zero value without a
// snapshot dir).
func (s *LocalShard) Recovery() live.RecoveryStats { return s.recovery }

// Health implements Shard.
func (s *LocalShard) Health() (ShardHealth, error) {
	h := ShardHealth{
		Ingested: s.agg.Ingested(),
		Builds:   s.agg.Builds(),
		Buckets:  s.agg.Buckets(),
		Slots:    bits.OnesCount16(s.agg.HeldSlots()),
	}
	if s.store != nil {
		h.Tweets = s.store.Count()
		h.Scans = s.store.ScanCount()
	}
	if s.snaps != nil {
		snap, rec := s.snaps.Stats(), s.recovery
		h.Snapshot, h.Recovery = &snap, &rec
	}
	return h, nil
}
