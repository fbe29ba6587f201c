package cluster

import (
	"fmt"

	"geomob/internal/ring"
	"geomob/internal/tweet"
)

// Handoff — live membership changes without losing exactness.
//
// Both AddShard and RemoveShard run the same three-act protocol under
// the ingest mutex (write quiescence is free: nothing new can ship
// while we hold it):
//
//  1. settle — ship every buffered slot batch and wait for the lanes to
//     drain, so the handoff sources hold their slots' complete
//     substreams. A member that is down and still owes deliveries
//     blocks the change: moving a slot off an incomplete copy would
//     lose acknowledged records.
//  2. stream — for every slot the ring diff moves onto a member that
//     did not hold it, replay the slot's canonical export from a
//     settled current replica into the destination via Deliver, under
//     a deterministic handoff sender identity. Because the export
//     order is canonical and the sequence numbers are frame indexes,
//     an interrupted handoff re-run regenerates the identical stream
//     and the receiver's (sender, seq) dedup resumes where it left
//     off.
//  3. flip — swap the (ring, shards, lanes) triple atomically under
//     topoMu. Queries that started before the flip finish against the
//     old topology; queries after it see the new one. Both are exact,
//     because the moved slots' substreams are already complete at
//     their new homes before the flip.

// AddShard grows the cluster by one member, streaming the slots the
// ring assigns it from their current replicas before the new topology
// takes effect. Ingest is quiesced for the duration.
func (c *Coordinator) AddShard(s Shard) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: coordinator closed")
	}
	if err := c.settleLocked(-1); err != nil {
		return err
	}
	old := c.ring
	name := memberName(len(old.Members()))
	grown, err := old.Join(name)
	if err != nil {
		return err
	}
	newIdx := len(old.Members())
	for _, mv := range ring.Diff(old, grown) {
		joins := false
		for _, nd := range mv.Added {
			if nd == newIdx {
				joins = true
			}
		}
		if !joins {
			continue
		}
		if err := c.streamSlotLocked(mv.Slot, old.Replicas(mv.Slot), s, grown.Version()); err != nil {
			return err
		}
	}
	c.topoMu.Lock()
	c.ring = grown
	c.shards = append(c.shards, s)
	l := newLane(newIdx, s, c.sp, c.depth, c.retryBase, c.retryMax)
	c.lanes = append(c.lanes, l)
	c.topoMu.Unlock()
	c.wg.Add(1)
	go l.run(&c.wg)
	return nil
}

// RemoveShard retires live member idx. Slots that lose a replica are
// first streamed to the members the ring promotes in its place; the
// departing member's undelivered spool entries are then released. With
// R == 1 the departing member is itself the only source, so it must be
// reachable — removing a dead sole-copy member would lose data, and is
// refused.
func (c *Coordinator) RemoveShard(idx int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return fmt.Errorf("cluster: coordinator closed")
	}
	old := c.ring
	members := old.Members()
	if idx < 0 || idx >= len(members) || members[idx].Gone {
		return fmt.Errorf("cluster: no live member %d", idx)
	}
	if err := c.settleLocked(idx); err != nil {
		return err
	}
	shrunk, err := old.Leave(idx)
	if err != nil {
		return err
	}
	for _, mv := range ring.Diff(old, shrunk) {
		// Sources: the slot's settled current replicas other than the
		// departing member; with R == 1 the departing member itself.
		var sources []int
		for _, nd := range old.Replicas(mv.Slot) {
			if nd != idx {
				sources = append(sources, nd)
			}
		}
		if len(sources) == 0 {
			sources = []int{idx}
		}
		for _, add := range mv.Added {
			if err := c.streamSlotLocked(mv.Slot, sources, c.shards[add], shrunk.Version()); err != nil {
				return err
			}
		}
	}
	if err := c.sp.AckNode(idx); err != nil {
		return err
	}
	c.topoMu.Lock()
	c.ring = shrunk
	l := c.lanes[idx]
	c.topoMu.Unlock()
	l.close()
	return nil
}

// settleLocked ships all buffers and waits for every lane to drain,
// then verifies no member except skip still owes deliveries. Caller
// holds c.mu.
func (c *Coordinator) settleLocked(skip int) error {
	if err := c.shipLocked(nil, allSlots[:]...); err != nil {
		return err
	}
	for _, l := range c.lanes {
		l.waitSettled()
	}
	for i := range c.lanes {
		if i == skip {
			continue
		}
		if pending := c.sp.PendingRowsNode(i); pending > 0 {
			return fmt.Errorf("cluster: membership change blocked: member %d still owes %d spooled rows (recover or remove it first)", i, pending)
		}
	}
	return nil
}

// streamSlotLocked replays slot's content from the first reachable
// source into dst. Shape-matched ends stream snapshot blobs — the
// source's pre-resolved bucket columns, which the receiver merges
// without re-resolving assignments; otherwise the canonical record
// export replays via Deliver. The choice is made once, up front, from
// both ends' health reports: the two paths use distinct sender
// namespaces, so switching modes mid-slot would defeat the (sender,
// seq) dedup and double-apply — a failed stream retries sources in the
// same mode instead. Either way the sender identity is a pure function
// of (slot, target ring version) and sequence numbers are frame
// indexes over a deterministic stream, so retries and source failover
// deduplicate instead of double-applying. Caller holds c.mu.
func (c *Coordinator) streamSlotLocked(slot int, sources []int, dst Shard, version uint64) error {
	if recv, ok := dst.(SnapshotReceiver); ok && c.snapHandoffOK(sources, dst) {
		return c.streamSlotSnapLocked(slot, sources, recv, version)
	}
	sender := fmt.Sprintf("handoff:%d:%016x", slot, version)
	var lastErr error
	for _, src := range sources {
		seq := uint64(0)
		err := c.shards[src].Export(slot, func(b *tweet.Batch) error {
			frame, err := tweet.AppendFrame(nil, b)
			if err != nil {
				return err
			}
			seq++
			return dst.Deliver(sender, seq, slot, frame)
		})
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return fmt.Errorf("cluster: handoff of slot %d failed on every source: %w", slot, lastErr)
	}
	return nil
}

// snapHandoffOK reports whether snapshot streaming is sound for this
// handoff: every source exports snapshots, and every end reports the
// same non-empty shape hash — the receiver will validate each blob
// against its own shape anyway, but checking health up front avoids
// committing to a stream that would be permanently rejected.
func (c *Coordinator) snapHandoffOK(sources []int, dst Shard) bool {
	dh, err := dst.Health()
	if err != nil || dh.ShapeHash == "" {
		return false
	}
	for _, src := range sources {
		if _, ok := c.shards[src].(SnapshotExporter); !ok {
			return false
		}
		sh, err := c.shards[src].Health()
		if err != nil || sh.ShapeHash != dh.ShapeHash {
			return false
		}
	}
	return true
}

// streamSlotSnapLocked is the snapshot-streaming arm of
// streamSlotLocked, under its own sender namespace.
func (c *Coordinator) streamSlotSnapLocked(slot int, sources []int, dst SnapshotReceiver, version uint64) error {
	sender := fmt.Sprintf("handoffsnap:%d:%016x", slot, version)
	var lastErr error
	for _, src := range sources {
		seq := uint64(0)
		err := c.shards[src].(SnapshotExporter).ExportSnap(slot, func(blob []byte) error {
			seq++
			return dst.DeliverSnap(sender, seq, slot, blob)
		})
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return fmt.Errorf("cluster: snapshot handoff of slot %d failed on every source: %w", slot, lastErr)
	}
	return nil
}
