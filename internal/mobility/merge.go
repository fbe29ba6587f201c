package mobility

import "fmt"

// This file implements the merge contract of the sharded pipeline (see
// DESIGN.md §4): every observer can fold a second observer that consumed a
// later, user-disjoint shard of the same stream into itself, producing
// exactly the state a single observer would have reached over the
// concatenated stream. Merging finalises both observers (per-user
// accumulators are flushed), so it must happen after the last Observe.

// Merge folds o into f by elementwise addition. Both matrices must be over
// the same number of areas. Flow counts are whole numbers, so the addition
// is exact and independent of merge order.
func (f *FlowMatrix) Merge(o *FlowMatrix) error {
	if len(f.Flows) != len(o.Flows) {
		return fmt.Errorf("mobility: merge flow matrices over %d and %d areas", len(f.Flows), len(o.Flows))
	}
	for i := range f.Flows {
		for j := range f.Flows[i] {
			f.Flows[i][j] += o.Flows[i][j]
		}
		f.Stays[i] += o.Stays[i]
	}
	return nil
}

// Merge folds o — an extractor that consumed a strictly later user shard of
// the same stream — into e. Both extractors must share the same mapper.
// After the merge, e's statistics and flows are exactly what a single
// extractor would have produced over the concatenated stream: counts and
// the waiting-time sum are integers, and the per-user series are appended
// in shard order, so even order-sensitive floating-point reductions
// downstream see the serial order.
func (e *Extractor) Merge(o *Extractor) error {
	if e.mapper != o.mapper {
		return fmt.Errorf("mobility: merge extractors with different mappers")
	}
	if e.trackStats != o.trackStats {
		return fmt.Errorf("mobility: merge extractors with different stats modes")
	}
	e.flushUser()
	e.userTweets = 0
	o.flushUser()
	o.userTweets = 0
	if o.started {
		if e.started && o.firstUser <= e.prevUser {
			return fmt.Errorf("mobility: merge shards out of order: user %d after user %d", o.firstUser, e.prevUser)
		}
		if !e.started {
			e.firstUser = o.firstUser
		}
		e.started = true
		e.prevUser = o.prevUser
		e.prevTS = o.prevTS
		e.prevArea = o.prevArea
	}
	e.tweetsSeen += o.tweetsSeen
	e.mappedSeen += o.mappedSeen
	e.userCount += o.userCount
	e.waitMs += o.waitMs
	e.perUserCount = append(e.perUserCount, o.perUserCount...)
	e.perUserCells = append(e.perUserCells, o.perUserCells...)
	e.perUserGyration = append(e.perUserGyration, o.perUserGyration...)
	return e.flows.Merge(o.flows)
}

// Merge folds o — a counter that consumed a strictly later user shard of
// the same stream — into c. Both counters must share the same mapper. The
// per-area unique-user counts are whole numbers, so the addition is exact.
func (c *UserCounter) Merge(o *UserCounter) error {
	if c.mapper != o.mapper {
		return fmt.Errorf("mobility: merge user counters with different mappers")
	}
	if o.started {
		if c.started && o.firstUser <= c.prevUser {
			return fmt.Errorf("mobility: merge shards out of order: user %d after user %d", o.firstUser, c.prevUser)
		}
		if !c.started {
			c.firstUser = o.firstUser
		}
		c.started = true
		c.prevUser = o.prevUser
	}
	// Keep serials unique should anything observe after the merge: the
	// merged counter has logically seen both sides' users.
	c.serial += o.serial
	for a, n := range o.counts {
		c.counts[a] += n
	}
	return nil
}
