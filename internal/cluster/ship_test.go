package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"geomob/internal/obs"
	"geomob/internal/ring"
	"geomob/internal/tweet"
)

// countingShard records how deliveries reach it — which calls, carrying
// which sequences — and holds nothing else. While gate is non-nil every
// delivery blocks on it, which lets a test fill a lane queue.
type countingShard struct {
	Shard // queries are never reached

	mu      sync.Mutex
	batches [][]uint64 // sequences of each DeliverBatch call
	gate    chan struct{}
}

func (s *countingShard) DeliverBatch(_ string, ds []Delivery) error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
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

// TestEnqueueOverflowGoesGapped: a group larger than the room left in a
// lane's queue stages only a prefix and flips the lane gapped; the
// spool refill past lastEnq then delivers the remainder — every
// sequence once, in order.
func TestEnqueueOverflowGoesGapped(t *testing.T) {
	const depth = 6
	sh := &countingShard{gate: make(chan struct{})}
	c, err := NewCoordinator([]Shard{sh}, CoordinatorOptions{queueDepth: depth, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := c.lanes[0]

	if err := c.AddBatch(tweet.BatchOf(slotTweets(1))); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if err := c.shipLocked(nil, allSlots[:]...); err != nil {
		t.Fatal(err)
	}
	c.mu.Unlock()

	l.mu.Lock()
	queued, gapped := len(l.q), l.gapped
	lastEnq, headSeq := l.lastEnq, l.q[0].seq
	l.mu.Unlock()
	if !gapped || queued != depth {
		t.Fatalf("after a %d-frame group into a depth-%d queue: queued=%d gapped=%v, want %d staged and gapped", ring.Slots, depth, queued, gapped, depth)
	}
	if lastEnq != headSeq+depth-1 {
		t.Fatalf("lastEnq = %d with head %d, want the staged prefix's last sequence %d", lastEnq, headSeq, headSeq+depth-1)
	}

	sh.mu.Lock()
	close(sh.gate)
	sh.gate = nil
	sh.mu.Unlock()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	batches := sh.seen()
	if got := contiguous(t, "shard 0", batches); got != ring.Slots {
		t.Fatalf("delivered %d frames in %v, want each of %d once", got, batches, ring.Slots)
	}
	if len(batches[0]) != depth {
		t.Fatalf("first drain carried %d frames, want the staged prefix of %d", len(batches[0]), depth)
	}
	l.mu.Lock()
	queued, gapped = len(l.q), l.gapped
	l.mu.Unlock()
	if gapped || queued != 0 || c.sp.PendingRowsNode(0) != 0 {
		t.Fatalf("lane not caught up: queued=%d gapped=%v pending=%d", queued, gapped, c.sp.PendingRowsNode(0))
	}
}
