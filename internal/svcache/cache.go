// Package svcache is the snapshot cache shared by the service layers
// (cmd/mobserve, internal/cluster): it memoises completed Study
// executions keyed on a composite string the caller builds from the
// canonical request (core.Request.Key) plus a validity component — the
// store generation (tweetdb.Store.Generation) for full-rescan
// computations, the live bucket-coverage fingerprint
// (live.Aggregator.CoverageKey) for bucket-fold computations, or the
// cluster-wide coverage fingerprint-sum for scatter-gather computations.
//
// Because validity lives in the key, an append invalidates exactly the
// entries whose coverage it touched — entries over unchanged buckets keep
// hitting across store generations — and stale entries age out through
// oldest-first eviction instead of a wholesale reset.
//
// The §4/§7/§8 merge contracts make the cached value exact: a pass (or
// fold) over fixed inputs is deterministic, so one completed computation
// answers every repeat of its key.
package svcache

import (
	"fmt"
	"sync"

	"geomob/internal/core"
	"geomob/internal/obs"
)

// Process-wide cache metrics (DESIGN.md §12). Every Cache instance
// feeds the same series: /metrics wants the service-level hit rate, and
// instances also keep their own hit/miss counters for /healthz.
var (
	mHits      = obs.Def.Counter("geomob_cache_hits_total", "Snapshot cache lookups served without recomputation.")
	mMisses    = obs.Def.Counter("geomob_cache_misses_total", "Snapshot cache lookups that invoked compute.")
	mEvictions = obs.Def.Counter("geomob_cache_evictions_total", "Snapshot cache entries dropped by oldest-first eviction.")
)

// defaultMaxSnapshots bounds the entry count when New is given zero.
// Distinct windowed requests are unbounded, so the cache evicts
// oldest-first when full: one burst of distinct windows ages out the
// stalest entries instead of wiping every warm one at once.
const defaultMaxSnapshots = 128

// Cache memoises completed executions. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*snapshot
	// order is the FIFO insertion order backing oldest-first eviction.
	// Slots whose entry was already replaced or removed are skipped.
	order        []cacheSlot
	hits, misses int64
}

type cacheSlot struct {
	key string
	e   *snapshot
}

// snapshot is one memoised execution; ready closes once res/err are set,
// so concurrent requests for the same key wait instead of recomputing.
type snapshot struct {
	ready chan struct{}
	res   *core.Result
	err   error
}

// New builds a cache bounded to max entries (0 means
// defaultMaxSnapshots).
func New(max int) *Cache {
	if max <= 0 {
		max = defaultMaxSnapshots
	}
	return &Cache{max: max, entries: map[string]*snapshot{}}
}

// Stats reports how many lookups were served from a completed or
// in-flight entry (hits) versus how many invoked compute (misses).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// evictLocked drops oldest entries until the cache fits. Caller holds
// c.mu. Only slots still holding their original entry count — a key that
// failed and was re-inserted occupies a younger slot.
func (c *Cache) evictLocked() {
	for len(c.entries) >= c.max && len(c.order) > 0 {
		slot := c.order[0]
		c.order = c.order[1:]
		if c.entries[slot.key] == slot.e {
			delete(c.entries, slot.key)
			mEvictions.Inc()
		}
	}
}

// Get returns the result for key, running compute at most once per key
// while the entry lives. cached reports whether the result was served
// without invoking compute. Failed computations are not kept: the entry
// is dropped so the next request retries — a cancelled or panicking pass
// must not poison the key for everyone else.
func (c *Cache) Get(key string, compute func() (*core.Result, error)) (res *core.Result, cached bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		mHits.Inc()
		<-e.ready
		return e.res, true, e.err
	}
	c.misses++
	mMisses.Inc()
	c.evictLocked()
	e := &snapshot{ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, cacheSlot{key: key, e: e})
	c.mu.Unlock()

	// ready must close and failed entries must be dropped even if
	// compute panics: net/http recovers only the panicking handler's
	// goroutine, and a poisoned entry would block every later request
	// for this key forever.
	defer func() {
		if r := recover(); r != nil {
			e.res, e.err = nil, fmt.Errorf("snapshot computation panicked: %v", r)
		}
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			// Reclaim the order slot too: failures never reach the
			// eviction sweep (the map stays small), so leaving the slot
			// would leak one per failed computation forever.
			for idx := range c.order {
				if c.order[idx].e == e {
					c.order = append(c.order[:idx], c.order[idx+1:]...)
					break
				}
			}
			c.mu.Unlock()
		}
		res, cached, err = e.res, false, e.err
	}()
	e.res, e.err = compute()
	return e.res, false, e.err
}
