package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/svcache"
	"geomob/internal/tweet"
	"geomob/internal/wal"
)

// Coordinator-side series (DESIGN.md §12).
var (
	mClusterIngested  = obs.Def.Counter("geomob_cluster_ingested_rows_total", "Rows accepted into the replication spool by coordinators.")
	mClusterFetches   = obs.Def.Counter("geomob_cluster_partial_fetches_total", "Shard fold RPCs issued by coordinators.")
	mClusterProbes    = obs.Def.Counter("geomob_cluster_coverage_probes_total", "Shard coverage RPCs issued by coordinators.")
	mClusterFailovers = obs.Def.Counter("geomob_cluster_failovers_total", "Nodes banned mid-query after an unavailable response.")
	mClusterUnavail   = obs.Def.Counter("geomob_cluster_unavailable_total", "Queries failed because some slot had no live, current replica.")
)

// IngestStages names a POST /v1/ingest through the coordinator's stages
// in trace order: decode (reading and parsing the body, and the reply —
// the remainder),
// route (slot routing and framing, including the wait for c.mu), spool
// (the group append: write plus fsync wait) and deliver (waiting for
// healthy lanes to settle).
var IngestStages = []string{"decode", "route", "spool", "deliver"}

// The coordinator's request paths, one histogram family labelled by
// stage. A query's scatter includes every failover retry round, so
// scatter − fold exposes probe/assignment overhead directly; encode, the
// remainder, is closed by whoever writes the answer (mobserve's traced
// handlers) and is the only stage a query's caller books.
var (
	QueryPath  = &obs.Path{Rest: stageEncode, Stages: QueryStages("scatter", "fold", "merge", "assemble", "encode")}
	IngestPath = &obs.Path{Every: true, Stages: QueryStages(IngestStages...)}
)

// Indices of the stages the coordinator books, into QueryPath and
// IngestPath.
const (
	stageScatter, stageFold, stageMerge, stageAssemble, stageEncode = 0, 1, 2, 3, 4
	stageRoute, stageSpool, stageDeliver                            = 1, 2, 3
)

// QueryStages returns the request-stage series for the given stage label
// values: geomob_query_stage_seconds, shared by both paths here and by
// a single node's queries.
func QueryStages(names ...string) []obs.Stage {
	return obs.StageFamily(obs.Def, "geomob_query_stage_seconds",
		"Per-stage latency of a request: scatter/fold/merge/assemble of a coordinator query, cache_lookup of a single-node query, encode of either, decode/route/spool/deliver of a coordinator ingest.",
		names...)
}

// CoordinatorOptions configure a Coordinator.
type CoordinatorOptions struct {
	// Replication is the ring's replica factor R: every placement slot
	// is delivered to R members (clamped to the member count) and any
	// one of them can serve it. Zero means 1 — no redundancy.
	Replication int
	// WALDir, when set, backs the ingest spool with a segmented WAL in
	// that directory: ingest acknowledges only after the fsync'd
	// append, and a coordinator reopened over the same directory (with
	// the same shard order) replays every unacknowledged frame. Empty
	// opens the same spool without a directory: the same delivery and
	// ack semantics, no crash durability.
	WALDir string

	// batchSize, drainCap and retryBase/retryMax, when non-zero,
	// override the defaults below; in-package tests shrink them.
	batchSize, drainCap int
	retryBase, retryMax time.Duration
}

const (
	// defaultBatchSize is how many records accumulate per placement slot
	// before the slot's buffer ships on its own, mid-request. Whatever is
	// still buffered when the request ends ships as one group (see
	// Flush), so it bounds coordinator memory and frame size, not the
	// number of fsyncs a small request pays.
	defaultBatchSize = 4096
	// defaultDrainCap bounds the frames one lane delivery carries, and so
	// the frames a lane holds: up to four full flush cycles of slot
	// frames. What a lane owes past it stays in the spool for its next
	// drain, so a dead shard costs bounded coordinator memory.
	defaultDrainCap = 4 * ring.Slots
	// defaultRetryBase/defaultRetryMax bound the lanes' exponential
	// delivery backoff.
	defaultRetryBase = 100 * time.Millisecond
	defaultRetryMax  = 5 * time.Second
)

// Coordinator is the cluster front door: it routes ingest records into
// per-slot batches, spools a request's framed batches durably as one
// group (the acknowledgement point), and wakes the replica lanes that
// read the group back from the spool. Queries scatter slot-set folds
// over one live, current replica per slot — failing over replica by
// replica — merge the slot-disjoint partials, and assemble through the
// exact single-node float pipeline, so answers are bit-identical to a
// single-node Study.Execute over the union substream no matter which
// replicas serve (DESIGN.md §10).
type Coordinator struct {
	batch int
	cache *svcache.Cache
	sp    *wal.Spool

	// ring, shards and lanes are set in NewCoordinator and never change:
	// membership is static, so reading them takes no lock.
	ring   *ring.Ring
	shards []Shard
	lanes  []*lane

	// mu serialises ingest buffering (AddBatch/Flush) exactly like
	// live.Ingestor.
	mu   sync.Mutex
	bufs [ring.Slots]*tweet.Batch

	wg     sync.WaitGroup
	closed atomic.Bool

	ingested       atomic.Int64 // records accepted (spooled)
	partialFetches atomic.Int64 // shard fold RPCs issued
}

// memberName names ring member i; names are positional so a WAL-backed
// coordinator reopened over the same shard order rebuilds the same
// ring.
func memberName(i int) string { return fmt.Sprintf("member-%03d", i) }

// NewCoordinator builds a coordinator over the shards. Between one and
// wal.MaxNodes shards are required — a spooled frame names its replicas
// in a 64-bit mask; member i of the ring is shards[i], so the shard
// order must be identical on every coordinator of the cluster (and
// across restarts when WALDir is set, for spool replay to reach the
// right nodes).
func NewCoordinator(shards []Shard, opts CoordinatorOptions) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	if len(shards) > wal.MaxNodes {
		return nil, fmt.Errorf("cluster: %d shards exceed the %d a spool destination mask can name", len(shards), wal.MaxNodes)
	}
	r := opts.Replication
	if r <= 0 {
		r = 1
	}
	if r > len(shards) {
		r = len(shards)
	}
	names := make([]string, len(shards))
	for i := range names {
		names[i] = memberName(i)
	}
	rg, err := ring.New(names, r)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		batch:  cmp.Or(opts.batchSize, defaultBatchSize),
		cache:  svcache.New(0),
		ring:   rg,
		shards: append([]Shard(nil), shards...),
	}
	if c.sp, err = wal.Open(wal.Options{Dir: opts.WALDir}); err != nil {
		return nil, err
	}
	drain := cmp.Or(opts.drainCap, defaultDrainCap)
	retryBase, retryMax := cmp.Or(opts.retryBase, defaultRetryBase), cmp.Or(opts.retryMax, defaultRetryMax)
	for i, sh := range c.shards {
		l := newLane(i, sh, c.sp, drain, retryBase, retryMax)
		c.lanes = append(c.lanes, l)
		c.wg.Add(1)
		go l.run(&c.wg)
	}
	return c, nil
}

// Shards returns the number of members.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Ingested returns the number of records accepted (spooled) so far.
func (c *Coordinator) Ingested() int64 { return c.ingested.Load() }

// PartialFetches returns the number of shard fold RPCs issued — the
// quantity warm cache hits keep flat (the §8 "zero shard scans"
// assertion).
func (c *Coordinator) PartialFetches() int64 { return c.partialFetches.Load() }

// CacheStats exposes the snapshot cache counters.
func (c *Coordinator) CacheStats() (hits, misses int64) { return c.cache.Stats() }

// AddBatch routes a whole columnar batch row by row into its placement
// slots' buffers by the UserID column, shipping a slot when its buffer
// fills. The batch is validated once up front and only read; ownership
// stays with the caller. Safe for concurrent use. Acceptance (a nil
// return from the enclosing Flush) means the records are spooled —
// durably under a WALDir — and owed to every replica, not that every
// replica already holds them.
func (c *Coordinator) AddBatch(b *tweet.Batch) error { return c.addBatch(b, nil) }

func (c *Coordinator) addBatch(b *tweet.Batch, st *obs.Stages) error {
	if b.Len() == 0 {
		return nil
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("%w: %w", live.ErrBadInput, err)
	}
	st.Begin()
	defer st.End(stageRoute)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: coordinator closed")
	}
	for r, user := range b.UserID {
		k := ring.SlotOf(user)
		buf := c.bufs[k]
		if buf == nil {
			buf = &tweet.Batch{}
			buf.Grow(c.batch)
			c.bufs[k] = buf
		}
		buf.Append(b.Row(r))
		if buf.Len() >= c.batch {
			if err := c.shipLocked(st, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// allSlots is the shipment a Flush makes: every slot with anything
// buffered.
var allSlots = func() (ks [ring.Slots]int) {
	for k := range ks {
		ks[k] = k
	}
	return
}()

// shipLocked is the one shipping path: it frames the buffers of the
// given slots (a full buffer ships a set of one, Flush ships them all),
// makes one spool group append — the durability/acknowledgement point,
// one write and one fsync however many slots ship — and only then
// notifies each replica lane, so an idle lane reads the shipment back as
// one drain. The spool hands out no frame before its group's fsync has
// returned: a frame applied at a shard under a sequence the spool then
// lost would see that sequence reused for another payload and silently
// deduplicated. st books the time up to the append as route and the
// append as spool. Caller holds c.mu.
func (c *Coordinator) shipLocked(st *obs.Stages, slots ...int) error {
	var group []wal.Entry
	var owed uint64
	for _, k := range slots {
		b := c.bufs[k]
		if b == nil || b.Len() == 0 {
			continue
		}
		frame, err := tweet.AppendFrame(nil, b)
		if err != nil {
			return fmt.Errorf("%w: %w", live.ErrBadInput, err)
		}
		var mask uint64
		for _, nd := range c.ring.Replicas(k) {
			mask |= 1 << uint(nd)
		}
		owed |= mask
		group = append(group, wal.Entry{Slot: k, Dests: mask, Frame: frame})
	}
	if len(group) == 0 {
		return nil
	}
	st.End(stageRoute)
	_, err := c.sp.AppendGroup(group)
	st.End(stageSpool)
	if err != nil {
		return fmt.Errorf("cluster: spool append: %w", err)
	}
	var rows int64
	for _, e := range group {
		rows += int64(c.bufs[e.Slot].Len())
		c.bufs[e.Slot].Reset()
	}
	for nd, l := range c.lanes {
		if owed&(1<<uint(nd)) != 0 {
			l.notify()
		}
	}
	c.ingested.Add(rows)
	mClusterIngested.Add(rows)
	return nil
}

// Flush ships everything buffered as one group and waits for the lanes
// to settle: on a healthy cluster every replica has applied everything
// on return, while a lane whose shard is down returns immediately — its
// frames are safe in the spool, surfaced as pending in Health, and
// delivered on recovery. Flush therefore fails only when spooling
// itself fails; a dead shard degrades the report, not the ingest.
func (c *Coordinator) Flush() error { return c.flush(nil) }

func (c *Coordinator) flush(st *obs.Stages) error {
	st.Begin()
	c.mu.Lock()
	err := c.shipLocked(st, allSlots[:]...)
	c.mu.Unlock()
	st.End(stageRoute)
	if err != nil {
		return err
	}
	for _, l := range c.lanes {
		l.waitSettled()
	}
	st.End(stageDeliver)
	return nil
}

// Close flushes, stops the lanes, and closes the spool. Undelivered
// frames stay spooled — durably under a WALDir, for the next
// coordinator over the same directory. The coordinator must not be
// used afterwards.
func (c *Coordinator) Close() error {
	if c.closed.Load() {
		return nil
	}
	err := c.Flush()
	c.closed.Store(true)
	for _, l := range c.lanes {
		l.close()
	}
	c.wg.Wait()
	if cerr := c.sp.Close(); err == nil {
		err = cerr
	}
	return err
}

// Ingest drains a stream of batches through the coordinator and flushes
// at the end, returning how many records the stream contributed — the
// cluster-mode twin of live.Ingestor.Ingest, riding the same loop and
// error contract (live.Drain; live.ErrBadInput marks the caller's
// records). Routing, spooling and delivery book route, spool and deliver
// into ctx's stage clock over IngestPath, when it carries one.
func (c *Coordinator) Ingest(ctx context.Context, read func(*tweet.Batch) error) (int, error) {
	st := obs.StagesFrom(ctx, IngestPath)
	return live.Drain(read,
		func(b *tweet.Batch) error { return c.addBatch(b, st) },
		func() error { return c.flush(st) })
}

// UnavailableError reports placement slots with no live, current
// replica: the member owning them and every other replica are
// unreachable (or still replaying missed deliveries). Callers surface
// it as 503 + Retry-After, naming the missing user-hash ranges.
type UnavailableError struct {
	Slots []int
	// TraceID is the query trace the failure belongs to when the request
	// carried one, so a 503 body correlates with the slow-query log and
	// shard-side errors.
	TraceID string
}

// UserRanges renders the unavailable slots' contiguous user-hash
// ranges (inclusive, over the ring's user-hash space).
func (e *UnavailableError) UserRanges() []string {
	out := make([]string, len(e.Slots))
	for i, k := range e.Slots {
		lo, hi := ring.SlotRange(k)
		out[i] = fmt.Sprintf("%016x-%016x", lo, hi)
	}
	return out
}

func (e *UnavailableError) Error() string {
	msg := fmt.Sprintf("cluster: no live replica for %d of %d user-ranges (%s)",
		len(e.Slots), ring.Slots, strings.Join(e.UserRanges(), ", "))
	if e.TraceID != "" {
		msg += " [trace " + e.TraceID + "]"
	}
	return msg
}

// assignSlots picks the replica to serve each slot: the first
// non-banned replica in ring order whose copy is current (zero spooled
// rows still owed for that slot — a replica mid-replay would answer
// with stale buckets). Slots with no candidate come back as an
// UnavailableError.
func (c *Coordinator) assignSlots(banned map[int]bool) ([ring.Slots]int, *UnavailableError) {
	var assign [ring.Slots]int
	var missing []int
	for k := 0; k < ring.Slots; k++ {
		chosen := -1
		for _, nd := range c.ring.Replicas(k) {
			if banned[nd] || c.sp.PendingRowsSlotNode(nd, k) > 0 {
				continue
			}
			chosen = nd
			break
		}
		if chosen < 0 {
			missing = append(missing, k)
			continue
		}
		assign[k] = chosen
	}
	if missing != nil {
		return assign, &UnavailableError{Slots: missing}
	}
	return assign, nil
}

// groupAssign buckets the slot→node assignment into one ascending slot
// list per node, skipping slots in skip.
func groupAssign(assign [ring.Slots]int, skip map[int]bool) map[int][]int {
	groups := map[int][]int{}
	for k := 0; k < ring.Slots; k++ {
		if skip != nil && skip[k] {
			continue
		}
		groups[assign[k]] = append(groups[assign[k]], k)
	}
	return groups
}

// Query answers req by replicated scatter-gather: pick one live,
// current replica per slot, probe their coverage to build the cache
// key, and on a miss fold the slot partials concurrently, merging
// through the exact single-node float pipeline (core.AssembleFolded).
// Because every replica of a slot holds the identical slot substream,
// the answer is bit-identical no matter which replicas serve; a
// replica dropping mid-query fails over to the next, and only a slot
// with no live replica at all fails the query (*UnavailableError).
// cached reports a warm hit, which costs the probes and nothing else.
func (c *Coordinator) Query(req core.Request) (*core.Result, bool, error) {
	return c.QueryCtx(context.Background(), req)
}

// QueryCtx is Query carrying a request context. The context's stage
// clock over QueryPath (obs.StagesFrom), when there is one, books scatter
// (assignment + coverage probes, including failover rounds), fold (shard
// partial fetches), merge and assemble; a stage that fails books nothing.
// The context's trace ID travels to remote shards in the obs.TraceHeader
// header and is stamped onto any UnavailableError.
func (c *Coordinator) QueryCtx(ctx context.Context, req core.Request) (*core.Result, bool, error) {
	if _, err := core.PlanRequest(req); err != nil {
		return nil, false, err
	}
	st := obs.StagesFrom(ctx, QueryPath)
	tid := obs.TraceID(ctx)

	banned := map[int]bool{}
	var assign [ring.Slots]int
	var keys map[int]string
	st.Begin()
	for {
		a, uerr := c.assignSlots(banned)
		if uerr != nil {
			uerr.TraceID = tid
			mClusterUnavail.Inc()
			return nil, false, uerr
		}
		ks, failed, err := c.coverageScatter(ctx, req, groupAssign(a, nil))
		if err != nil {
			return nil, false, err
		}
		if failed >= 0 {
			banned[failed] = true
			mClusterFailovers.Inc()
			continue
		}
		assign, keys = a, ks
		break
	}
	st.End(stageScatter)

	fp := coverageFingerprint(c.ring.Version(), assign, keys)
	// Explain recording rides the triggering request's context only: a
	// caller coalesced onto another request's compute (or served from
	// cache) gets topology but no shard fragments.
	rec := newShardExplainRecorder(ctx)
	res, cached, err := c.cache.Get(req.Key()+"|cf="+fp, func() (*core.Result, error) {
		st.Begin()
		parts, err := c.fetchPartials(ctx, req, assign, banned, rec)
		if err != nil {
			return nil, err
		}
		st.End(stageFold)
		merged, err := MergePartials(req, parts)
		if err != nil {
			return nil, err
		}
		st.End(stageMerge)
		out, err := core.AssembleFolded(req, merged)
		if err == nil {
			st.End(stageAssemble)
		}
		return out, err
	})
	if err != nil {
		var uerr *UnavailableError
		if errors.As(err, &uerr) {
			mClusterUnavail.Inc()
			if tid != "" && uerr.TraceID == "" {
				// Stamp a copy: the original may be shared by the cache
				// with concurrent callers carrying other traces.
				stamped := *uerr
				stamped.TraceID = tid
				err = &stamped
			}
		}
	}
	if ex := obs.ExplainFrom(ctx); ex != nil && err == nil {
		ex.Set("cluster", ClusterExplain{
			RingVersion: fmt.Sprintf("%016x", c.ring.Version()),
			Fingerprint: fp,
			Members:     len(c.shards),
			Failovers:   len(banned),
			Shards:      rec.fragments(),
		})
	}
	return res, cached, err
}

// coverageScatter probes each chosen node's coverage over its slot set,
// concurrently. An unavailable node is reported back for failover;
// sentinel fold errors propagate as-is (every replica would answer
// identically, so failing over is pointless).
func (c *Coordinator) coverageScatter(ctx context.Context, req core.Request, groups map[int][]int) (map[int]string, int, error) {
	type probe struct {
		node int
		key  string
		err  error
	}
	ch := make(chan probe, len(groups))
	for nd, slots := range groups {
		mClusterProbes.Inc()
		go func(nd int, slots []int) {
			key, err := c.shards[nd].Coverage(ctx, req, slots)
			ch <- probe{nd, key, err}
		}(nd, slots)
	}
	keys := map[int]string{}
	failed := -1
	var firstErr error
	for range groups {
		p := <-ch
		switch {
		case p.err == nil:
			keys[p.node] = p.key
		case isUnavailable(p.err):
			if failed < 0 || p.node < failed {
				failed = p.node
			}
		default:
			if firstErr == nil {
				firstErr = p.err
			}
		}
	}
	if firstErr != nil {
		return nil, -1, firstErr
	}
	if failed >= 0 {
		return nil, failed, nil
	}
	return keys, -1, nil
}

// fetchPartials gathers one partial per assigned node over that node's
// slot set, ordered by node index, failing the slots of a node that drops
// between the coverage probe and the fetch over to surviving replicas —
// one more partial per node in the next round.
func (c *Coordinator) fetchPartials(ctx context.Context, req core.Request, assign [ring.Slots]int, banned map[int]bool, rec *shardExplainRecorder) ([]*live.ShardPartial, error) {
	var parts []*live.ShardPartial
	done := map[int]bool{}
	for len(done) < ring.Slots {
		groups := groupAssign(assign, done)
		type fetched struct {
			node  int
			slots []int
			ps    []*live.ShardPartial
			err   error
		}
		ch := make(chan fetched, len(groups))
		for nd, slots := range groups {
			c.partialFetches.Add(1)
			mClusterFetches.Inc()
			go func(nd int, slots []int) {
				t0 := time.Now()
				ps, err := c.shards[nd].Partials(ctx, req, slots)
				if err == nil {
					rec.add(nd, slots, ps, float64(time.Since(t0).Nanoseconds())/1e6)
				}
				ch <- fetched{nd, slots, ps, err}
			}(nd, slots)
		}
		var failedNodes []int
		round := map[int]*live.ShardPartial{}
		for range groups {
			f := <-ch
			switch {
			case f.err == nil:
				if len(f.ps) != 1 {
					return nil, fmt.Errorf("cluster: node %d returned %d partials for one slot set", f.node, len(f.ps))
				}
				round[f.node] = f.ps[0]
				for _, k := range f.slots {
					done[k] = true
				}
			case isUnavailable(f.err):
				failedNodes = append(failedNodes, f.node)
			default:
				return nil, f.err
			}
		}
		for _, nd := range slices.Sorted(maps.Keys(round)) {
			parts = append(parts, round[nd])
		}
		if len(failedNodes) > 0 {
			for _, nd := range failedNodes {
				banned[nd] = true
				mClusterFailovers.Inc()
			}
			// Reassign the slots still missing to surviving replicas.
			a, uerr := c.assignSlots(banned)
			if uerr != nil {
				var stuck []int
				for _, k := range uerr.Slots {
					if !done[k] {
						stuck = append(stuck, k)
					}
				}
				if len(stuck) > 0 {
					return nil, &UnavailableError{Slots: stuck}
				}
			}
			for k := 0; k < ring.Slots; k++ {
				if !done[k] {
					assign[k] = a[k]
				}
			}
		}
	}
	return parts, nil
}

// coverageFingerprint condenses (ring version, slot→node assignment,
// per-node coverage keys) into the cache key component that moves
// exactly when any served slot's covered buckets change — or when the
// serving topology does.
func coverageFingerprint(version uint64, assign [ring.Slots]int, keys map[int]string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v=%016x;", version)
	for k := 0; k < ring.Slots; k++ {
		fmt.Fprintf(h, "%d:%d;", k, assign[k])
	}
	// Every node's key, in node order; each covers the node's slot set.
	for _, nd := range slices.Sorted(maps.Keys(keys)) {
		fmt.Fprintf(h, "n%d=%s;", nd, keys[nd])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShardStatus is one member's entry in the coordinator's health report.
type ShardStatus struct {
	Index  int    `json:"index"`
	Member string `json:"member"`
	// OK means the member answered its health probe. Degraded means it
	// currently owes spooled deliveries or its last delivery failed —
	// transient by design: it clears once the lane catches the member
	// back up.
	OK       bool `json:"ok"`
	Degraded bool `json:"degraded,omitempty"`
	// Pending counts spooled rows not yet acknowledged by this member.
	// Retries/Failures/Dropped count delivery attempts that failed, and
	// LastError/LastErrorAt latch the most recent failure — nothing a
	// 202 accepted is ever dropped without a trace here.
	Pending     int64       `json:"pending"`
	Delivered   int64       `json:"delivered"`
	Batches     int64       `json:"batches"`
	Retries     int64       `json:"retries,omitempty"`
	Failures    int64       `json:"failures,omitempty"`
	Dropped     int64       `json:"dropped,omitempty"`
	LastError   string      `json:"last_error,omitempty"`
	LastErrorAt string      `json:"last_error_at,omitempty"`
	Slots       []int       `json:"slots"`
	Health      ShardHealth `json:"health"`
}

// RingStatus summarises the placement ring and spool for /healthz.
type RingStatus struct {
	Version     string    `json:"version"`
	Members     int       `json:"members"`
	Replication int       `json:"replication"`
	Slots       int       `json:"slots"`
	Spool       wal.Stats `json:"spool"`
}

// RingStatus reports the current ring configuration and spool state.
func (c *Coordinator) RingStatus() RingStatus {
	return RingStatus{
		Version:     fmt.Sprintf("%016x", c.ring.Version()),
		Members:     len(c.shards),
		Replication: c.ring.Replication(),
		Slots:       ring.Slots,
		Spool:       c.sp.Stats(),
	}
}

// Health probes every member and combines the liveness with the lanes'
// delivery state — the payload of the coordinator's /healthz. A member
// with undelivered spooled rows or a failing lane reports Degraded
// rather than silently shedding its batches.
func (c *Coordinator) Health() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		st := &out[i]
		st.Index = i
		st.Member = memberName(i)
		c.lanes[i].report(st)
		st.Pending = c.sp.PendingRowsNode(i)
		st.Degraded = st.Degraded || st.Pending > 0
		st.Slots = c.ring.SlotsFor(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.shards[i].Health()
			if err != nil {
				out[i].Degraded = true
				if out[i].LastError == "" {
					out[i].LastError = err.Error()
				}
				return
			}
			out[i].OK = true
			out[i].Health = h
		}(i)
	}
	wg.Wait()
	return out
}
