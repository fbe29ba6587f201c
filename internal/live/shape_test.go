package live

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// TestShapeSharedAggregators: aggregators stamped from one Shape are
// independent (separate buckets, counters, revisions) while sharing
// the assignment machinery, and they fold bit-identically to an
// aggregator built standalone over the same options.
func TestShapeSharedAggregators(t *testing.T) {
	opts := Options{BucketWidth: time.Hour}
	sh, err := NewShape(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sh.NewAggregator(), sh.NewAggregator()
	standalone, err := NewAggregator(opts)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(id, user int64, ts int64) tweet.Tweet {
		return tweet.Tweet{ID: id, UserID: user, TS: ts, Lat: -33.87, Lon: 151.21}
	}
	base := int64(1378000000000)
	batchA := tweet.BatchOf([]tweet.Tweet{
		mk(1, 100, base), mk(2, 100, base+60000), mk(3, 101, base+120000),
	})
	batchB := tweet.BatchOf([]tweet.Tweet{
		mk(4, 200, base), mk(5, 200, base+30000),
	})
	if err := a.IngestBatch(batchA); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestBatch(batchB); err != nil {
		t.Fatal(err)
	}
	if err := standalone.IngestBatch(batchA); err != nil {
		t.Fatal(err)
	}

	if a.Ingested() != 3 || b.Ingested() != 2 {
		t.Fatalf("counters leaked across shared shape: a=%d b=%d", a.Ingested(), b.Ingested())
	}
	if a.Buckets() == 0 || b.Buckets() == 0 {
		t.Fatal("aggregator over shared shape holds no buckets")
	}

	lo, hi := base-1, base+600000
	if !testx.ValuesBitEqual(mustWindow(t, a, lo, hi), mustWindow(t, standalone, lo, hi)) {
		t.Fatal("shared-shape aggregator diverges from standalone over identical input")
	}
	// b never saw batchA's users.
	for _, row := range mustWindow(t, b, lo, hi) {
		if row.UserID != 200 {
			t.Fatalf("aggregator b leaked user %d from aggregator a", row.UserID)
		}
	}
}

// TestShapeSlotOrder pins the one slot layout every ring has: the paper
// scales in order at their paper radii, then the metro 0.5 km variant.
// The shape hash is pinned too: snapshot directories written by an
// earlier build name it, and must keep restoring.
func TestShapeSlotOrder(t *testing.T) {
	sh, err := NewShape(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sh.scales, census.Scales()) ||
		!slices.Equal(sh.slotRadius, []float64{50_000, 25_000, 2_000, 500}) || sh.metroSlot != 3 || sh.slots != 4 {
		t.Fatalf("scales %v, radii %v, metro slot %d of %d", sh.scales, sh.slotRadius, sh.metroSlot, sh.slots)
	}
	for s, want := range append(census.Scales(), census.ScaleMetropolitan) {
		if got := sh.regions[s].Scale; got != want {
			t.Errorf("slot %d resolves %v regions, want %v", s, got, want)
		}
	}
	if got, want := fmt.Sprintf("%016x", sh.hash), "58b186a9e004d9bc"; got != want {
		t.Errorf("hourly shape hash %s, want %s", got, want)
	}
}
