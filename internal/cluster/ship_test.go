package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweet"
)

// countingShard records how deliveries reach it — which calls, carrying
// which sequences — and holds nothing else.
type countingShard struct {
	Shard // queries are never reached

	mu      sync.Mutex
	batches [][]uint64 // sequences of each DeliverBatch call
}

func (s *countingShard) DeliverBatch(_ string, ds []Delivery) error {
	seqs := make([]uint64, len(ds))
	for i, d := range ds {
		seqs[i] = d.Seq
	}
	s.mu.Lock()
	s.batches = append(s.batches, seqs)
	s.mu.Unlock()
	return nil
}

func (s *countingShard) Health() (ShardHealth, error) { return ShardHealth{}, nil }

// seen returns the DeliverBatch calls so far and resets the record.
func (s *countingShard) seen() [][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	batches := s.batches
	s.batches = nil
	return batches
}

// slotTweets returns perSlot valid tweets for every placement slot.
func slotTweets(perSlot int) []tweet.Tweet {
	var out []tweet.Tweet
	var have [ring.Slots]int
	for u, filled := int64(1), 0; filled < ring.Slots; u++ {
		k := ring.SlotOf(u)
		if have[k] == perSlot {
			continue
		}
		if have[k]++; have[k] == perSlot {
			filled++
		}
		out = append(out, tweet.Tweet{ID: u, UserID: u, TS: 1378000000000 + u, Lat: -33.87, Lon: 151.21})
	}
	return out
}

func walFsyncs() int64 { return obs.Def.Snapshot().Int("geomob_wal_fsyncs_total") }

// contiguous fails unless seqs, concatenated, ascend by exactly one.
func contiguous(t *testing.T, who string, batches [][]uint64) (n int) {
	t.Helper()
	var prev uint64
	for _, b := range batches {
		for _, seq := range b {
			if prev != 0 && seq != prev+1 {
				t.Fatalf("%s: sequence %d follows %d in %v", who, seq, prev, batches)
			}
			prev = seq
			n++
		}
	}
	return n
}

// TestFlushOneFsyncOneDelivery pins what one ingest request costs a
// WAL-backed R=2 cluster: one spool fsync, and per shard one
// DeliverBatch carrying all sixteen slot frames — whichever ingest path
// the records arrive by.
func TestFlushOneFsyncOneDelivery(t *testing.T) {
	shards := []*countingShard{{}, {}}
	c, err := NewCoordinator([]Shard{shards[0], shards[1]}, CoordinatorOptions{Replication: 2, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	round := int64(0)
	body := func(perSlot int) []tweet.Tweet {
		tws := slotTweets(perSlot)
		for i := range tws {
			tws[i].ID += round << 32
		}
		round++
		return tws
	}
	// request runs one ingest and checks the shape of what it cost.
	request := func(name string, wantFsyncs int64, wantDrains, wantFrames int, ingest func() error) {
		t.Helper()
		before := walFsyncs()
		if err := ingest(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := walFsyncs() - before; got != wantFsyncs {
			t.Errorf("%s: %d spool fsyncs, want %d", name, got, wantFsyncs)
		}
		for nd, sh := range shards {
			who := fmt.Sprintf("%s: shard %d", name, nd)
			batches := sh.seen()
			if wantDrains > 0 && len(batches) != wantDrains {
				t.Errorf("%s saw %d DeliverBatch calls %v, want %d", who, len(batches), batches, wantDrains)
			}
			if got := contiguous(t, who, batches); got != wantFrames {
				t.Errorf("%s received %d frames, want %d", who, got, wantFrames)
			}
			if got := c.sp.PendingRowsNode(nd); got != 0 {
				t.Errorf("%s still owed %d rows after Flush returned", who, got)
			}
		}
	}

	request("AddBatch", 1, 1, ring.Slots, func() error {
		if err := c.AddBatch(tweet.BatchOf(body(5))); err != nil {
			return err
		}
		return c.Flush()
	})
	request("Ingest", 1, 1, ring.Slots, func() error {
		var buf bytes.Buffer
		for _, tw := range body(3) {
			fmt.Fprintf(&buf, `{"id":%d,"user":%d,"ts":%d,"lat":%g,"lon":%g}`+"\n", tw.ID, tw.UserID, tw.TS, tw.Lat, tw.Lon)
		}
		_, err := c.Ingest(context.Background(), tweet.NewNDJSONReader(&buf).ReadBatch)
		return err
	})

	// One slot's buffer crossing batchSize mid-request ships alone (a set
	// of one: its own fsync, and a drain of its own unless the lane has
	// not woken before the Flush group is staged behind it); the rest of
	// the request is still one group.
	c.batch = 8
	hot := slotTweets(1)[0]
	request("batchSize crossed", 2, 0, ring.Slots+1, func() error {
		tws := body(2)
		for i := 0; i < c.batch; i++ {
			tw := hot
			tw.ID = int64(1<<40) + int64(i)
			tws = append(tws, tw)
		}
		if err := c.AddBatch(tweet.BatchOf(tws)); err != nil {
			return err
		}
		return c.Flush()
	})
}

// TestDrainCapped: a group larger than the drain cap reaches the shard
// in drains of at most the cap, read straight from the spool — every
// sequence once, in order.
func TestDrainCapped(t *testing.T) {
	const drain = 6
	sh := &countingShard{}
	c, err := NewCoordinator([]Shard{sh}, CoordinatorOptions{drainCap: drain, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddBatch(tweet.BatchOf(slotTweets(1))); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	batches := sh.seen()
	if got := contiguous(t, "shard 0", batches); got != ring.Slots {
		t.Fatalf("delivered %d frames in %v, want each of %d once", got, batches, ring.Slots)
	}
	for _, b := range batches {
		if len(b) > drain {
			t.Fatalf("a drain carried %d frames in %v, want at most %d", len(b), batches, drain)
		}
	}
	if got := c.sp.PendingRowsNode(0); got != 0 {
		t.Fatalf("lane not caught up: %d rows still owed", got)
	}
}

// outageShard refuses every delivery as unavailable while down, and
// records the largest delivery it was offered.
type outageShard struct {
	countingShard
	down    atomic.Bool
	largest atomic.Int64
}

func (s *outageShard) DeliverBatch(sender string, ds []Delivery) error {
	if n := int64(len(ds)); n > s.largest.Load() {
		s.largest.Store(n)
	}
	if s.down.Load() {
		return fmt.Errorf("%w: shard down", errUnavailable)
	}
	return s.countingShard.DeliverBatch(sender, ds)
}

// TestOutageDrainsFromSpool: while a shard is down for many more groups
// than one drain, its lane is offered no more than one drain at a time
// and the spool keeps its retained frames within budget; once the shard
// returns, every sequence reaches it once, in ascending order, and the
// spool lets go of everything.
func TestOutageDrainsFromSpool(t *testing.T) {
	// retainBudget is the spool's in-memory frame budget (internal/wal).
	const drain, groups, retainBudget = 4, 12, 16 << 20
	sh := &outageShard{}
	sh.down.Store(true)
	c, err := NewCoordinator([]Shard{sh}, CoordinatorOptions{
		drainCap: drain, WALDir: t.TempDir(),
		retryBase: time.Millisecond, retryMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for g := 0; g < groups; g++ {
		tws := slotTweets(2)
		for i := range tws {
			tws[i].ID += int64(g) << 32
		}
		if err := c.AddBatch(tweet.BatchOf(tws)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := c.sp.Stats(); st.RetainedBytes > retainBudget {
			t.Fatalf("group %d: spool retains %d bytes, over its %d budget", g, st.RetainedBytes, retainBudget)
		}
	}
	if st := c.sp.Stats(); st.PendingRecords != groups*ring.Slots {
		t.Fatalf("during the outage the spool holds %d records, want all %d", st.PendingRecords, groups*ring.Slots)
	}
	sh.down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for c.sp.PendingRowsNode(0) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shard still owed %d rows after recovery", c.sp.PendingRowsNode(0))
		}
		time.Sleep(time.Millisecond)
	}
	if got := contiguous(t, "shard 0", sh.seen()); got != groups*ring.Slots {
		t.Fatalf("delivered %d frames after recovery, want each of %d once", got, groups*ring.Slots)
	}
	if got := sh.largest.Load(); got > drain {
		t.Fatalf("the lane offered a delivery of %d frames, over its drain cap of %d", got, drain)
	}
	if st := c.sp.Stats(); st.PendingRecords != 0 || st.RetainedBytes != 0 {
		t.Fatalf("after recovery the spool holds %+v, want nothing pending or retained", st)
	}
}
