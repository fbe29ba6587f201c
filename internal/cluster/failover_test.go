package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// chaosShard wraps a Shard with an injectable outage and a swappable
// inner — setDown(true) is a crash, swap(inner) is the process coming
// back (possibly as a fresh LocalShard rebuilt from the same store,
// which is exactly what kill -9 plus restart produces).
type chaosShard struct {
	mu    sync.Mutex
	inner Shard
	down  bool
	// failFetches fails that many Partials calls as unavailable while
	// coverage probes still answer: a crash between probe and fetch.
	failFetches int
}

func newChaosShard(inner Shard) *chaosShard { return &chaosShard{inner: inner} }

func (c *chaosShard) setDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

func (c *chaosShard) swap(inner Shard) {
	c.mu.Lock()
	c.inner = inner
	c.down = false
	c.mu.Unlock()
}

func (c *chaosShard) get() (Shard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil, fmt.Errorf("%w: injected crash", errUnavailable)
	}
	return c.inner, nil
}

func (c *chaosShard) DeliverBatch(sender string, ds []Delivery) error {
	s, err := c.get()
	if err != nil {
		return err
	}
	return s.DeliverBatch(sender, ds)
}

func (c *chaosShard) Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error) {
	c.mu.Lock()
	fail := c.failFetches > 0
	if fail {
		c.failFetches--
	}
	c.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w: injected crash mid-fetch", errUnavailable)
	}
	s, err := c.get()
	if err != nil {
		return nil, err
	}
	return s.Partials(ctx, req, slots)
}

func (c *chaosShard) Coverage(ctx context.Context, req core.Request, slots []int) (string, error) {
	s, err := c.get()
	if err != nil {
		return "", err
	}
	return s.Coverage(ctx, req, slots)
}

func (c *chaosShard) Health() (ShardHealth, error) {
	s, err := c.get()
	if err != nil {
		return ShardHealth{}, err
	}
	return s.Health()
}

func failoverCorpus(t *testing.T, n int, seedA, seedB uint64) []tweet.Tweet {
	t.Helper()
	gen, err := synth.NewGenerator(synth.DefaultConfig(n, seedA, seedB))
	if err != nil {
		t.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	// Quantise coordinates to the storage codec's microdegree grid, as
	// real 6-decimal feed data already is. Store-backed shards rebuild
	// their in-memory state from segments on restart, and segments hold
	// microdegrees — a corpus off the grid could never round-trip a
	// crash bit-identically, by design of the storage codec.
	for i := range all {
		all[i].Lat = tweet.DegreesFromMicro(tweet.Microdegrees(all[i].Lat))
		all[i].Lon = tweet.DegreesFromMicro(tweet.Microdegrees(all[i].Lon))
	}
	return all
}

func singleNodeRef(t *testing.T, all []tweet.Tweet, req core.Request) *core.Result {
	t.Helper()
	sorted := append([]tweet.Tweet(nil), all...)
	sort.Sort(tweet.ByUserTime(sorted))
	ref, err := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1}).
		Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func waitNodeDrained(t *testing.T, c *Coordinator, node int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if c.sp.PendingRowsNode(node) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %d still owes %d spooled rows after %v", node, c.sp.PendingRowsNode(node), within)
}

func fastRetry() CoordinatorOptions {
	return CoordinatorOptions{BatchSize: 64, RetryBase: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond}
}

// TestLaneRedeliveryAfterRecovery is the silent-drop fix's contract,
// end to end over HTTP: an ingest accepted while a shard node is down
// is NOT lost — the coordinator reports the shard degraded with the
// batch pending and the delivery error latched, keeps retrying, and
// the node receives every record once it comes back.
func TestLaneRedeliveryAfterRecovery(t *testing.T) {
	all := failoverCorpus(t, 400, 17, 19)

	healthy, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	flakyLocal, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(flakyLocal, NodeOptions{})
	var down atomic.Bool
	down.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()

	opts := fastRetry()
	coord, err := NewCoordinator([]Shard{healthy, NewHTTPShard(srv.URL, srv.Client())}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	// Flush must accept the ingest even though node 1 is down: the
	// records are spooled, not dropped.
	if err := coord.Flush(); err != nil {
		t.Fatalf("flush with a down shard must still accept: %v", err)
	}
	if got := coord.Ingested(); got != int64(len(all)) {
		t.Fatalf("accepted %d of %d records", got, len(all))
	}

	// The outage is visible, not silent: degraded, rows pending,
	// retries counted, last error latched.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := coord.Health()
		st := sts[1]
		if st.Degraded && st.Pending > 0 && st.Retries > 0 && st.LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outage not surfaced in health: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pending := coord.sp.PendingRowsNode(1); pending == 0 {
		t.Fatal("down node shows no pending rows")
	}

	// Recovery: the lane drains the spool into the node with no new
	// ingest calls from the client.
	down.Store(false)
	waitNodeDrained(t, coord, 1, 10*time.Second)
	if got := flakyLocal.Ring().Ingested() + healthy.Ring().Ingested(); got != int64(len(all)) {
		t.Fatalf("recovered cluster holds %d of %d records", got, len(all))
	}
	sts := coord.Health()
	if st := sts[1]; st.Degraded || st.Pending != 0 {
		t.Fatalf("recovered node still degraded: %+v", st)
	}

	// And the delivered state is exact.
	req := core.Request{}
	res, _, err := coord.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(res, singleNodeRef(t, all, req)) {
		t.Fatal("post-recovery scatter-gather diverges from single-node execute")
	}
}

// TestQueryFailoverReplicated: with R=2 over 3 members, killing any
// single member mid-query costs nothing — every slot fails over to its
// surviving replica and the answer stays bit-identical. Each member's
// ring holds about two thirds of the slots and serves a strict subset of
// them, more after a failover; hourly buckets put closed day and month
// rollups under the windows, whose flows cross partials.
func TestQueryFailoverReplicated(t *testing.T) {
	all := failoverCorpus(t, 400, 17, 19)
	chaos := make([]*chaosShard, 3)
	shards := make([]Shard, 3)
	locals := make([]*LocalShard, 3)
	for i := range shards {
		local, err := NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		locals[i] = local
		chaos[i] = newChaosShard(local)
		shards[i] = chaos[i]
	}
	opts := fastRetry()
	opts.Replication = 2
	coord, err := NewCoordinator(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}

	minTS, maxTS := all[0].TS, all[0].TS
	for _, tw := range all {
		minTS, maxTS = min(minTS, tw.TS), max(maxTS, tw.TS)
	}
	// Windows of about five months, their edges inside hour buckets.
	from, to := time.UnixMilli(minTS+(maxTS-minTS)/7+17).UTC(), time.UnixMilli(maxTS-(maxTS-minTS)/7-29).UTC()
	reqs := []core.Request{
		{},
		{Analyses: []core.Analysis{core.AnalysisPopulation}},
		{Analyses: []core.Analysis{core.AnalysisFlows}},
		{Analyses: []core.Analysis{core.AnalysisPopulation, core.AnalysisFlows}, Scales: []census.Scale{census.ScaleState}, Radius: 30_000},
		{Analyses: []core.Analysis{core.AnalysisStats, core.AnalysisFlows}, From: from, To: to},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}, Radius: 750, From: from, To: to},
	}
	refs := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		refs[i] = singleNodeRef(t, all, req)
	}

	for kill := 0; kill < 3; kill++ {
		chaos[kill].setDown(true)
		for i, req := range reqs {
			res, _, err := coord.Query(req)
			if err != nil {
				t.Fatalf("kill %d req %d: %v", kill, i, err)
			}
			if !testx.ValuesBitEqual(res, refs[i]) {
				t.Fatalf("kill %d req %d: failover answer diverges", kill, i)
			}
		}
		chaos[kill].setDown(false)
	}
	for _, l := range locals {
		if st := l.Ring().RollupStats(); len(st) != 2 || st[0].Builds == 0 || st[1].Builds == 0 {
			t.Fatalf("the windows took no closed day or month rollup: %+v", st)
		}
	}
	// Member 0 folds a strict subset of the slots it holds and the rest
	// of them, as a failover splits them.
	var held []int
	for k := 0; k < ring.Slots; k++ {
		if slices.Contains(coord.ring.Replicas(k), 0) {
			held = append(held, k)
		}
	}
	var mine []tweet.Tweet
	for _, tw := range all {
		if slices.Contains(held, ring.SlotOf(tw.UserID)) {
			mine = append(mine, tw)
		}
	}
	for _, req := range reqs {
		assertSlotHalves(t, locals[0], mine, req, held[:len(held)/2])
	}

	// Two members down: some slot loses both replicas, and the failure
	// is precise — an UnavailableError naming the missing user-hash
	// ranges, not a wrong answer.
	chaos[0].setDown(true)
	chaos[1].setDown(true)
	var lost []int
	for k := 0; k < ring.Slots; k++ {
		rs := coord.ring.Replicas(k)
		if (rs[0] == 0 || rs[0] == 1) && (rs[1] == 0 || rs[1] == 1) {
			lost = append(lost, k)
		}
	}
	if len(lost) == 0 {
		t.Skip("no slot has replica set {0,1} under this ring; nothing to assert")
	}
	_, _, err = coord.Query(core.Request{})
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("query with a dead slot returned %v, want UnavailableError", err)
	}
	if len(ue.Slots) == 0 || len(ue.UserRanges()) != len(ue.Slots) {
		t.Fatalf("unavailable error names no user ranges: %+v", ue)
	}
	for _, k := range ue.Slots {
		found := false
		for _, l := range lost {
			if k == l {
				found = true
			}
		}
		if !found {
			t.Fatalf("slot %d reported unavailable but has a live replica", k)
		}
	}
}

// TestFetchFailoverMidQuery: with R=2 over 3 members, a member that
// answers its coverage probe and then fails its fetch costs one more
// round: its slots go to surviving replicas, every node still answers
// each fetch with exactly one partial, and the answer stays bit-exact.
func TestFetchFailoverMidQuery(t *testing.T) {
	all := failoverCorpus(t, 400, 17, 19)
	chaos := make([]*chaosShard, 3)
	shards := make([]Shard, 3)
	for i := range shards {
		local, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		chaos[i] = newChaosShard(local)
		shards[i] = chaos[i]
	}
	opts := fastRetry()
	opts.Replication = 2
	coord, err := NewCoordinator(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	first := map[int]bool{} // the nodes serving a healthy fetch
	for k := 0; k < ring.Slots; k++ {
		first[coord.ring.Replicas(k)[0]] = true
	}
	for kill := range chaos {
		if !first[kill] {
			continue
		}
		// A request no earlier round answered, so the fetch runs.
		req := core.Request{Analyses: []core.Analysis{core.AnalysisStats, core.AnalysisPopulation, core.AnalysisFlows},
			From: time.UnixMilli(-int64(kill) - 1).UTC()}
		chaos[kill].mu.Lock()
		chaos[kill].failFetches = 1
		chaos[kill].mu.Unlock()
		fetches := coord.PartialFetches()
		res, cached, err := coord.Query(req)
		if err != nil || cached {
			t.Fatalf("kill %d: cached=%v err=%v", kill, cached, err)
		}
		if !testx.ValuesBitEqual(res, singleNodeRef(t, all, req)) {
			t.Fatalf("kill %d: failover mid-fetch diverges from single-node execute", kill)
		}
		// One fetch per healthy first-round node, then one per node the
		// failed node's slots moved to.
		moved := map[int]bool{}
		for k := 0; k < ring.Slots; k++ {
			if rs := coord.ring.Replicas(k); rs[0] == kill {
				moved[rs[1]] = true
			}
		}
		if got, want := coord.PartialFetches()-fetches, int64(len(first)+len(moved)); got != want {
			t.Fatalf("kill %d: %d fetches, want %d (one per node per round)", kill, got, want)
		}
	}
}

// TestDeliverDedup: redelivering the same (sender, seq) — the lane's
// behaviour after an ambiguous failure, and the WAL's after replay —
// applies nothing twice, across restarts of the shard.
func TestDeliverDedup(t *testing.T) {
	dir := t.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLocalShard(store, live.Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tw := tweet.Tweet{ID: 1, UserID: 42, TS: 1378000000000, Lat: -33.87, Lon: 151.21}
	slot := ring.SlotOf(tw.UserID)
	frame, err := tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{tw}))
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Def.Snapshot()
	for i := 0; i < 3; i++ {
		if err := s.DeliverBatch("sender-a", []Delivery{{Seq: 7, Slot: slot, Frame: frame}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Ring().Ingested(); got != 1 {
		t.Fatalf("triple delivery ingested %d records, want 1", got)
	}
	// Deliveries commit through the shard's Ingestor but are not ingest
	// requests: they book their own series, not the ingest path's.
	after := obs.Def.Snapshot()
	for _, key := range []string{"geomob_ingest_records_total", "geomob_ingest_batches_total", "geomob_ingest_flush_seconds_count"} {
		if after[key] != before[key] {
			t.Errorf("a delivery moved %s by %g", key, after[key]-before[key])
		}
	}
	if got := after["geomob_shard_delivered_frames_total"] - before["geomob_shard_delivered_frames_total"]; got != 1 {
		t.Errorf("geomob_shard_delivered_frames_total moved by %g, want 1", got)
	}
	if got := store.Count(); got != 1 {
		t.Fatalf("triple delivery stored %d records, want 1", got)
	}
	// A different sender at the same seq is not a duplicate.
	if err := s.DeliverBatch("sender-b", []Delivery{{Seq: 7, Slot: slot, Frame: frame}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Ring().Ingested(); got != 2 {
		t.Fatalf("distinct sender deduplicated: ingested %d, want 2", got)
	}
	// Restart: the high-water marks come back from the manifest, so a
	// spool replay across the restart still deduplicates.
	store2, err := tweetdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewLocalShard(store2, live.Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.DeliverBatch("sender-a", []Delivery{{Seq: 7, Slot: slot, Frame: frame}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.DeliverBatch("sender-b", []Delivery{{Seq: 6, Slot: slot, Frame: frame}}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Ring().Ingested(); got != 2 {
		t.Fatalf("post-restart redelivery not deduplicated: ingested %d, want 2 (backfill only)", got)
	}
	// A frame whose user hashes to another slot than the one it claims is
	// refused whole, and its sequence stays unapplied.
	later := tw
	later.ID, later.TS = 2, tw.TS+1
	laterFrame, err := tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{later}))
	if err != nil {
		t.Fatal(err)
	}
	err = s2.DeliverBatch("sender-a", []Delivery{{Seq: 8, Slot: (slot + 1) % ring.Slots, Frame: laterFrame}})
	if !errors.Is(err, live.ErrBadInput) {
		t.Fatalf("mislabelled frame: %v, want ErrBadInput", err)
	}
	if got, n := s2.Ring().Ingested(), store2.Count(); got != 2 || n != 2 {
		t.Fatalf("mislabelled frame applied: ingested %d, stored %d, want 2 and 2", got, n)
	}
	if err := s2.DeliverBatch("sender-a", []Delivery{{Seq: 8, Slot: slot, Frame: laterFrame}}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Ring().Ingested(); got != 3 {
		t.Fatalf("the frame under its own slot ingested %d records in all, want 3", got)
	}
	// A delivery holding one frame with an invalid record is refused
	// whole: its valid frame reaches neither store nor ring, and lands
	// once when delivered alone.
	later.ID, later.TS = 3, tw.TS+2
	bad := later
	bad.ID, bad.Lat = 4, 999
	laterFrame, err = tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{later}))
	if err != nil {
		t.Fatal(err)
	}
	badFrame, err := tweet.AppendFrame(nil, tweet.BatchOf([]tweet.Tweet{bad}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.DeliverBatch("sender-a", []Delivery{{Seq: 9, Slot: slot, Frame: laterFrame}, {Seq: 10, Slot: slot, Frame: badFrame}}); err == nil {
		t.Fatal("a delivery holding an invalid record was accepted")
	}
	if got, n := s2.Ring().Ingested(), store2.Count(); got != 3 || n != 3 {
		t.Fatalf("refused delivery applied: ingested %d, stored %d, want 3 and 3", got, n)
	}
	if err := s2.DeliverBatch("sender-a", []Delivery{{Seq: 9, Slot: slot, Frame: laterFrame}}); err != nil {
		t.Fatal(err)
	}
	if got, n := s2.Ring().Ingested(), store2.Count(); got != 4 || n != 4 {
		t.Fatalf("the valid frame alone: ingested %d, stored %d, want 4 and 4", got, n)
	}
}

// TestWALRecoveryAcrossRestart: a coordinator killed with undelivered
// spooled frames loses nothing — a new coordinator over the same WAL
// directory (same shard order) replays them, under the same persistent
// sender identity, and the recovered cluster answers exactly.
func TestWALRecoveryAcrossRestart(t *testing.T) {
	all := failoverCorpus(t, 300, 29, 31)
	walDir := t.TempDir()
	stores := []*tweetdb.Store{nil, nil}
	for i := range stores {
		st, err := tweetdb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	newShards := func() ([]Shard, []*chaosShard) {
		chaos := make([]*chaosShard, 2)
		shards := make([]Shard, 2)
		for i := range shards {
			local, err := NewLocalShard(stores[i], live.Options{BucketWidth: 7 * 24 * time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			chaos[i] = newChaosShard(local)
			shards[i] = chaos[i]
		}
		return shards, chaos
	}

	opts := fastRetry()
	opts.WALDir = walDir
	shards, chaos := newShards()
	coord, err := NewCoordinator(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	sender := coord.SenderID()
	chaos[1].setDown(true) // node 1 dies before anything delivers to it
	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	pendingBefore := coord.sp.PendingRowsNode(1)
	if pendingBefore == 0 {
		t.Fatal("node 1 should owe spooled rows")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart" the coordinator: same WAL dir, same shard order, node 1
	// back up. The spool replays everything node 1 missed.
	shards2, _ := newShards()
	coord2, err := NewCoordinator(shards2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if coord2.SenderID() != sender {
		t.Fatalf("sender identity not persistent: %s vs %s", coord2.SenderID(), sender)
	}
	waitNodeDrained(t, coord2, 1, 10*time.Second)

	req := core.Request{}
	res, _, err := coord2.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(res, singleNodeRef(t, all, req)) {
		t.Fatal("post-restart recovered cluster diverges from single-node execute")
	}
}

// TestClusterChaosProperty is the issue's acceptance property, in
// process: R=2 over 3 store-backed members, one member killed (kill -9
// semantics: its ring state discarded, its store kept) in the middle of
// ingest, zero acked batches lost, queries exact throughout failover
// and after recovery.
func TestClusterChaosProperty(t *testing.T) {
	all := failoverCorpus(t, 500, 43, 47)
	half := len(all) / 2

	stores := make([]*tweetdb.Store, 3)
	chaos := make([]*chaosShard, 3)
	shards := make([]Shard, 3)
	for i := range shards {
		st, err := tweetdb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		local, err := NewLocalShard(st, live.Options{BucketWidth: 7 * 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		chaos[i] = newChaosShard(local)
		shards[i] = chaos[i]
	}
	opts := fastRetry()
	opts.Replication = 2
	opts.WALDir = t.TempDir()
	coord, err := NewCoordinator(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if err := coord.AddBatch(tweet.BatchOf(all[:half])); err != nil {
		t.Fatal(err)
	}
	// kill -9 member 1 mid-ingest: its in-memory rings vanish, its
	// store survives on disk.
	chaos[1].setDown(true)
	if err := coord.AddBatch(tweet.BatchOf(all[half:])); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatalf("ingest must be accepted during the outage: %v", err)
	}
	if got := coord.Ingested(); got != int64(len(all)) {
		t.Fatalf("accepted %d of %d records", got, len(all))
	}

	// During the outage: every query exact via the surviving replicas.
	reqs := []core.Request{
		{},
		{Analyses: []core.Analysis{core.AnalysisPopulation}},
		{Analyses: []core.Analysis{core.AnalysisFlows}},
		{Analyses: []core.Analysis{core.AnalysisStats}},
	}
	refs := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		refs[i] = singleNodeRef(t, all, req)
		res, _, err := coord.Query(req)
		if err != nil {
			t.Fatalf("req %d during outage: %v", i, err)
		}
		if !testx.ValuesBitEqual(res, refs[i]) {
			t.Fatalf("req %d during outage diverges from single-node execute", i)
		}
	}

	// Restart member 1 from its surviving store; the spool replays what
	// it missed (deduplicating what its store already held).
	restarted, err := NewLocalShard(stores[1], live.Options{BucketWidth: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	chaos[1].swap(restarted)
	waitNodeDrained(t, coord, 1, 10*time.Second)

	// After recovery the restarted member's copies are complete: kill
	// each OTHER member in turn and the answers still come out exact —
	// which can only happen if member 1 now holds its slots' full
	// substreams.
	for _, kill := range []int{0, 2} {
		chaos[kill].setDown(true)
		for i, req := range reqs {
			res, _, err := coord.Query(req)
			if err != nil {
				t.Fatalf("req %d with member %d down post-recovery: %v", i, kill, err)
			}
			if !testx.ValuesBitEqual(res, refs[i]) {
				t.Fatalf("req %d with member %d down post-recovery diverges", i, kill)
			}
		}
		chaos[kill].setDown(false)
	}
}
