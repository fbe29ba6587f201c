package cluster

import (
	"errors"
	"sync"
	"time"

	"geomob/internal/live"
	"geomob/internal/obs"
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
// it, and latches the error instead of wedging the queue forever.
var errPermanent = errors.New("cluster: delivery permanently rejected")

func isUnavailable(err error) bool { return errors.Is(err, errUnavailable) }

func permanentDeliveryError(err error) bool {
	return errors.Is(err, errPermanent) || errors.Is(err, live.ErrBadInput)
}

// laneEntry is one spooled frame staged for delivery to a node.
type laneEntry struct {
	seq   uint64
	slot  int
	rows  int
	frame []byte
}

// lane is one shard node's delivery pipeline: a bounded FIFO of
// spooled frames drained by a single sender goroutine in sequence
// order, with exponential backoff on failure. When the queue
// overflows (a down shard, a restart replay) the lane goes "gapped":
// the overflow stays in the spool and the sender refills from
// PendingForNode as the queue drains, so coordinator memory stays
// bounded by depth while the spool holds the tail.
type lane struct {
	node   int
	shard  Shard
	sp     spool
	sender string
	depth  int
	base   time.Duration
	max    time.Duration

	mu         sync.Mutex
	cv         *sync.Cond
	q          []*laneEntry
	gapped     bool
	spilled    bool   // enqueue left frames to the spool since the last refill began
	lastEnq    uint64 // highest seq ever staged in q
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

func newLane(node int, shard Shard, sp spool, depth int, base, max time.Duration) *lane {
	l := &lane{
		node: node, shard: shard, sp: sp, sender: sp.SenderID(),
		depth: depth, base: base, max: max,
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
	obs.Def.GaugeFunc("geomob_lane_queue_depth", "Frames currently staged per shard lane.",
		func() float64 { return float64(l.status().queued) }, "node", nd)
	return l
}

// enqueue stages this lane's share of one freshly-spooled group, in
// ascending sequence order, under a single lock hold — so an idle
// sender wakes to the whole share and drains it as one delivery. What
// does not fit the queue (or anything at all once gapped) flips the
// lane to gapped: those frames are already durable in the spool, and
// the sender pulls them back via PendingForNode past lastEnq once the
// queue drains.
func (l *lane) enqueue(ents []*laneEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	room := l.depth - len(l.q)
	if l.gapped || room < 0 {
		room = 0
	}
	if len(ents) > room {
		l.gapped, l.spilled = true, true
		ents = ents[:room]
	}
	if len(ents) == 0 {
		return
	}
	l.q = append(l.q, ents...)
	l.lastEnq = ents[len(ents)-1].seq
	l.cv.Broadcast()
}

// markGapped marks the lane as having spool-resident work (boot replay
// of a recovered WAL).
func (l *lane) markGapped() {
	l.mu.Lock()
	l.gapped = true
	l.cv.Broadcast()
	l.mu.Unlock()
}

// run is the sender loop: deliver what is staged, ack the spool on
// success, back off exponentially on failure. Strict FIFO in seq order
// keeps per-sender sequences monotone at the shard, which is what
// makes its high-water-mark dedup sound.
func (l *lane) run(wg *sync.WaitGroup) {
	defer wg.Done()
	backoff := time.Duration(0)
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.gapped && !l.closed {
			l.cv.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		if len(l.q) == 0 {
			// Gapped: refill from the spool past the highest staged seq.
			after := l.lastEnq
			l.spilled = false
			l.mu.Unlock()
			recs, err := l.sp.PendingForNode(l.node, after, l.depth)
			l.mu.Lock()
			if err != nil {
				l.failures++
				l.lastErr = err.Error()
				l.errAt = time.Now()
				l.cv.Broadcast()
				l.mu.Unlock()
				if !l.sleep(l.base) {
					return
				}
				continue
			}
			if len(recs) == 0 {
				// Caught up — unless a group spilled while the spool was
				// being read: it may have landed after that read, so look
				// again rather than strand it behind later sequences.
				l.gapped = l.spilled
				l.cv.Broadcast()
				l.mu.Unlock()
				continue
			}
			for i := range recs {
				r := &recs[i]
				l.q = append(l.q, &laneEntry{seq: r.Seq, slot: r.Slot, rows: r.Rows, frame: r.Frame})
				if r.Seq > l.lastEnq {
					l.lastEnq = r.Seq
				}
			}
		}
		// Drain: the shard takes the whole staged queue in one durable
		// commit (one high-water-mark advance per drain). The drained
		// prefix is stable across the unlock — enqueue only appends, and
		// only this goroutine removes.
		ents := l.q[:len(l.q):len(l.q)]
		l.attempting = true
		l.mu.Unlock()

		t0 := time.Now()
		err := l.deliver(ents)
		if err != nil && len(ents) > 1 {
			// Retry the head alone: a transient failure backs off as
			// usual, and a single poison frame is isolated and dropped
			// instead of permanently rejecting the whole drain.
			ents = ents[:1]
			err = l.deliver(ents)
		}
		l.mDeliverSecs.Observe(time.Since(t0).Seconds())

		l.mu.Lock()
		l.attempting = false
		if err == nil {
			_ = l.sp.AckBatch(entrySeqs(ents), l.node)
			for _, e := range ents {
				l.delivered += int64(e.rows)
				l.mRows.Add(int64(e.rows))
			}
			l.q = l.q[len(ents):]
			l.batches += int64(len(ents))
			l.mFrames.Add(int64(len(ents)))
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
			_ = l.sp.AckBatch(entrySeqs(ents), l.node)
			l.q = l.q[1:]
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

// deliver hands ents to the shard in one DeliverBatch.
func (l *lane) deliver(ents []*laneEntry) error {
	ds := make([]Delivery, len(ents))
	for i, e := range ents {
		ds[i] = Delivery{Seq: e.seq, Slot: e.slot, Frame: e.frame}
	}
	return l.shard.DeliverBatch(l.sender, ds)
}

func entrySeqs(ents []*laneEntry) []uint64 {
	seqs := make([]uint64, len(ents))
	for i, e := range ents {
		seqs[i] = e.seq
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

// waitSettled blocks until the lane has nothing left to attempt (queue
// and spool tail drained) or is in a failure state. A down lane
// returns immediately: its frames are safe in the spool, and ingest
// acknowledgement must not wait out a dead shard's backoff.
func (l *lane) waitSettled() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed || l.down {
			return
		}
		if len(l.q) == 0 && !l.gapped && !l.attempting {
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

// laneStatus is a consistent snapshot for health reporting.
type laneStatus struct {
	queued    int
	gapped    bool
	down      bool
	delivered int64
	batches   int64
	retries   int64
	failures  int64
	dropped   int64
	lastErr   string
	errAt     time.Time
}

func (l *lane) status() laneStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return laneStatus{
		queued:    len(l.q),
		gapped:    l.gapped,
		down:      l.down,
		delivered: l.delivered,
		batches:   l.batches,
		retries:   l.retries,
		failures:  l.failures,
		dropped:   l.dropped,
		lastErr:   l.lastErr,
		errAt:     l.errAt,
	}
}
