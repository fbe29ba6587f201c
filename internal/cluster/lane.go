package cluster

import (
	"errors"
	"sync"
	"time"

	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/wal"
)

// errUnavailable marks a shard that cannot currently be reached — a
// transport failure or a 5xx from its node. The coordinator's query
// path fails over to another replica on it; the delivery lanes retry
// it with backoff. A 4xx fold error is deliberately NOT unavailability:
// every replica would answer it identically, so failing over is
// pointless.
var errUnavailable = errors.New("cluster: shard unavailable")

// errPermanent marks a delivery the shard actively rejected (4xx): a
// retry loop would never succeed, so the lane drops the frame, counts
// it, and latches the error instead of wedging the lane forever.
var errPermanent = errors.New("cluster: delivery permanently rejected")

func isUnavailable(err error) bool { return errors.Is(err, errUnavailable) }

func permanentDeliveryError(err error) bool {
	return errors.Is(err, errPermanent) || errors.Is(err, live.ErrBadInput)
}

// lane is one shard node's delivery pipeline: a single sender goroutine
// that reads the lowest frames the spool owes its node — at most one
// drain of them — delivers them in sequence order and acks them, with
// exponential backoff on failure. The spool is its only queue, so a
// down shard or a restart replay costs the coordinator one drain of
// memory while the spool holds the tail.
type lane struct {
	node   int
	shard  Shard
	sp     spool
	sender string
	drain  int // most frames one delivery carries
	base   time.Duration
	max    time.Duration

	mu         sync.Mutex
	cv         *sync.Cond
	work       bool // the spool may owe the node frames no read has seen
	attempting bool
	down       bool // last attempt failed; cleared on the next success
	closed     bool

	delivered int64 // rows delivered
	batches   int64 // frames delivered
	retries   int64
	failures  int64
	dropped   int64 // frames permanently rejected and abandoned
	lastErr   string
	errAt     time.Time

	// Per-node series on the process registry (DESIGN.md §12), labelled
	// by positional member name so every coordinator over the same shard
	// order feeds the same series.
	mRows, mFrames, mRetries, mFailures, mDropped *obs.Counter
	mDeliverSecs                                  *obs.Histogram

	closeCh chan struct{}
}

// newLane builds node's lane. It starts with work pending, so its first
// read replays whatever a reopened spool still owes the node.
func newLane(node int, shard Shard, sp spool, drain int, base, max time.Duration) *lane {
	l := &lane{
		node: node, shard: shard, sp: sp, sender: sp.SenderID(),
		drain: drain, base: base, max: max,
		work:    true,
		closeCh: make(chan struct{}),
	}
	l.cv = sync.NewCond(&l.mu)
	nd := memberName(node)
	l.mRows = obs.Def.Counter("geomob_lane_delivered_rows_total", "Rows delivered (and spool-acked) per shard lane.", "node", nd)
	l.mFrames = obs.Def.Counter("geomob_lane_delivered_frames_total", "Frames delivered per shard lane.", "node", nd)
	l.mRetries = obs.Def.Counter("geomob_lane_retries_total", "Delivery attempts deferred to backoff per shard lane.", "node", nd)
	l.mFailures = obs.Def.Counter("geomob_lane_failures_total", "Failed delivery attempts per shard lane.", "node", nd)
	l.mDropped = obs.Def.Counter("geomob_lane_dropped_frames_total", "Frames permanently rejected and abandoned per shard lane.", "node", nd)
	l.mDeliverSecs = obs.Def.Histogram("geomob_lane_deliver_seconds", "Latency of one delivery attempt (single frame or whole drain).", nil, "node", nd)
	return l
}

// notify tells the lane the spool owes its node more frames: a group
// naming the node has been durably appended.
func (l *lane) notify() {
	l.mu.Lock()
	l.work = true
	l.cv.Broadcast()
	l.mu.Unlock()
}

// run is the sender loop: read a drain from the spool, deliver it, ack
// the spool on success, back off exponentially on failure. Strict
// sequence order keeps per-sender sequences monotone at the shard,
// which is what makes its high-water-mark dedup sound.
func (l *lane) run(wg *sync.WaitGroup) {
	defer wg.Done()
	backoff := time.Duration(0)
	for {
		l.mu.Lock()
		for !l.work && !l.closed {
			l.cv.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		// Take the wake-up before reading: a group appended during the
		// read notifies again, so the next pass reads it.
		l.work, l.attempting = false, true
		l.mu.Unlock()

		recs, err := l.sp.PendingForNode(l.node, l.drain)
		if err == nil && len(recs) == 0 {
			l.mu.Lock()
			l.attempting = false
			l.cv.Broadcast()
			l.mu.Unlock()
			continue
		}
		if err == nil {
			recs, err = l.deliver(recs)
		}

		l.mu.Lock()
		// More may be owed behind this drain, or it must be tried again.
		l.attempting, l.work = false, true
		if err == nil {
			_ = l.sp.AckBatch(recordSeqs(recs), l.node)
			for _, r := range recs {
				l.delivered += int64(r.Rows)
				l.mRows.Add(int64(r.Rows))
			}
			l.batches += int64(len(recs))
			l.mFrames.Add(int64(len(recs)))
			l.down = false
			backoff = 0
			l.cv.Broadcast()
			l.mu.Unlock()
			continue
		}
		l.failures++
		l.mFailures.Inc()
		l.lastErr = err.Error()
		l.errAt = time.Now()
		if permanentDeliveryError(err) {
			// The shard rejected the frame outright; retrying cannot
			// succeed. Drop it (counted, latched) rather than wedge
			// every later frame behind it.
			_ = l.sp.AckBatch(recordSeqs(recs), l.node)
			l.dropped++
			l.mDropped.Inc()
			l.cv.Broadcast()
			l.mu.Unlock()
			continue
		}
		l.down = true
		l.retries++
		l.mRetries.Inc()
		l.cv.Broadcast()
		l.mu.Unlock()
		if backoff < l.base {
			backoff = l.base
		} else {
			backoff *= 2
			if backoff > l.max {
				backoff = l.max
			}
		}
		if !l.sleep(backoff) {
			return
		}
	}
}

// deliver hands the drain to the shard in one DeliverBatch — one
// durable commit and one high-water-mark advance at the shard. If that
// fails it retries the head alone: a transient failure backs off as
// usual, and a single poison frame is isolated and dropped instead of
// permanently rejecting the whole drain. It returns the frames its last
// attempt carried.
func (l *lane) deliver(recs []wal.Record) ([]wal.Record, error) {
	t0 := time.Now()
	err := l.shard.DeliverBatch(l.sender, deliveries(recs))
	if err != nil && len(recs) > 1 {
		recs = recs[:1]
		err = l.shard.DeliverBatch(l.sender, deliveries(recs))
	}
	l.mDeliverSecs.Observe(time.Since(t0).Seconds())
	return recs, err
}

func deliveries(recs []wal.Record) []Delivery {
	ds := make([]Delivery, len(recs))
	for i, r := range recs {
		ds[i] = Delivery{Seq: r.Seq, Slot: r.Slot, Frame: r.Frame}
	}
	return ds
}

func recordSeqs(recs []wal.Record) []uint64 {
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	return seqs
}

// sleep waits d or until the lane closes; false means closed.
func (l *lane) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-l.closeCh:
		return false
	}
}

// waitSettled blocks until the lane has nothing left to attempt (a read
// after the last notify found the spool owes it nothing) or is in a
// failure state. A down lane returns immediately: its frames are safe
// in the spool, and ingest acknowledgement must not wait out a dead
// shard's backoff.
func (l *lane) waitSettled() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed || l.down {
			return
		}
		if !l.work && !l.attempting {
			return
		}
		l.cv.Wait()
	}
}

func (l *lane) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.cv.Broadcast()
	l.mu.Unlock()
	close(l.closeCh)
}

// report fills st's delivery state from one consistent reading of the
// lane, for health reporting.
func (l *lane) report(st *ShardStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st.Delivered, st.Batches = l.delivered, l.batches
	st.Retries, st.Failures, st.Dropped = l.retries, l.failures, l.dropped
	st.LastError, st.Degraded = l.lastErr, l.down
	if !l.errAt.IsZero() {
		st.LastErrorAt = l.errAt.UTC().Format(time.RFC3339)
	}
}
