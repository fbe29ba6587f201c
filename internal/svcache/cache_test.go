package svcache

import (
	"errors"
	"fmt"
	"testing"

	"geomob/internal/core"
)

// TestSnapshotCachePanicRecovery: a panicking computation must surface as
// an error and must not poison the key — later requests retry instead of
// blocking forever on an entry whose ready channel never closed.
func TestSnapshotCachePanicRecovery(t *testing.T) {
	c := New(0)

	_, cached, err := c.Get("k", func() (*core.Result, error) { panic("boom") })
	if err == nil || cached {
		t.Fatalf("panicking compute: cached=%v err=%v, want error", cached, err)
	}

	want := &core.Result{Observers: 7}
	res, cached, err := c.Get("k", func() (*core.Result, error) { return want, nil })
	if err != nil || cached || res != want {
		t.Fatalf("retry after panic: res=%v cached=%v err=%v", res, cached, err)
	}

	// And the healthy entry now serves from cache.
	res, cached, err = c.Get("k", func() (*core.Result, error) {
		return nil, errors.New("must not recompute")
	})
	if err != nil || !cached || res != want {
		t.Fatalf("cache hit after retry: res=%v cached=%v err=%v", res, cached, err)
	}
}

// TestSnapshotCacheErrorNotCached: failed computations are dropped so the
// next request retries.
func TestSnapshotCacheErrorNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")

	if _, cached, err := c.Get("k", func() (*core.Result, error) { return nil, boom }); !errors.Is(err, boom) || cached {
		t.Fatalf("cached=%v err=%v, want boom uncached", cached, err)
	}
	want := &core.Result{}
	if res, cached, err := c.Get("k", func() (*core.Result, error) { return want, nil }); err != nil || cached || res != want {
		t.Fatalf("retry: res=%v cached=%v err=%v", res, cached, err)
	}
}

// TestSnapshotCacheKeyedInvalidation: the validity component lives inside
// the key, so a moved generation (or bucket coverage) misses while the
// old key's entry simply ages out instead of wiping anything.
func TestSnapshotCacheKeyedInvalidation(t *testing.T) {
	c := New(0)
	a := &core.Result{}
	if _, cached, _ := c.Get("req|g=1", func() (*core.Result, error) { return a, nil }); cached {
		t.Fatal("first fill reported cached")
	}
	if _, cached, _ := c.Get("req|g=2", func() (*core.Result, error) { return &core.Result{}, nil }); cached {
		t.Fatal("new generation key reported cached")
	}
	if res, cached, _ := c.Get("req|g=1", func() (*core.Result, error) { return nil, errors.New("nope") }); !cached || res != a {
		t.Fatal("old generation entry should still be warm until evicted")
	}
}

// TestSnapshotCacheOldestFirstEviction: filling the cache past its bound
// evicts the stalest entries only — a burst of distinct windowed requests
// cannot wipe every warm entry at once.
func TestSnapshotCacheOldestFirstEviction(t *testing.T) {
	c := New(0)
	mk := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < defaultMaxSnapshots; i++ {
		if _, cached, _ := c.Get(mk(i), func() (*core.Result, error) { return &core.Result{Observers: i}, nil }); cached {
			t.Fatalf("fill %d reported cached", i)
		}
	}
	// One more insert evicts exactly the oldest entry.
	if _, cached, _ := c.Get("overflow", func() (*core.Result, error) { return &core.Result{}, nil }); cached {
		t.Fatal("overflow insert reported cached")
	}
	if _, cached, _ := c.Get(mk(0), func() (*core.Result, error) { return &core.Result{}, nil }); cached {
		t.Fatal("oldest entry survived eviction")
	}
	// The youngest pre-overflow entries are still warm (the old code
	// reset the whole map here).
	for i := defaultMaxSnapshots - 8; i < defaultMaxSnapshots; i++ {
		res, cached, _ := c.Get(mk(i), func() (*core.Result, error) { return nil, errors.New("cold") })
		if !cached || res == nil || res.Observers != i {
			t.Fatalf("young entry %d was evicted by the burst", i)
		}
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats: hits=%d misses=%d, want both positive", hits, misses)
	}
}
