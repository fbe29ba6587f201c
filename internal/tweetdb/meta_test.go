package tweetdb

import (
	"testing"

	"geomob/internal/tweet"
)

// TestManifestMeta: meta entries commit atomically with the append's
// manifest save and survive reopen — the cluster's delivery high-water
// marks depend on exactly this coupling.
func TestManifestMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := tweet.BatchOf([]tweet.Tweet{
		{ID: 1, UserID: 10, TS: 1378000000000, Lat: -33.8, Lon: 151.2},
		{ID: 2, UserID: 10, TS: 1378000001000, Lat: -33.8, Lon: 151.2},
	})
	if err := s.AppendBatchMeta(b, map[string]string{"hwm:abc": "7"}); err != nil {
		t.Fatal(err)
	}
	if got := s.MetaPrefix("hwm:abc")["hwm:abc"]; got != "7" {
		t.Fatalf("Meta(hwm:abc) = %q, want 7", got)
	}
	if got := s.MetaPrefix("absent")["absent"]; got != "" {
		t.Fatalf("Meta(absent) = %q, want empty", got)
	}

	// Meta-only update (no rows) must still persist.
	if err := s.AppendBatchMeta(&tweet.Batch{}, map[string]string{"hwm:def": "3"}); err != nil {
		t.Fatal(err)
	}
	// Merge semantics: later appends overwrite the same key.
	b2 := tweet.BatchOf([]tweet.Tweet{
		{ID: 3, UserID: 11, TS: 1378000002000, Lat: -33.8, Lon: 151.2},
	})
	if err := s.AppendBatchMeta(b2, map[string]string{"hwm:abc": "9"}); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.MetaPrefix("hwm:abc")["hwm:abc"]; got != "9" {
		t.Fatalf("reopened Meta(hwm:abc) = %q, want 9", got)
	}
	all := s2.MetaPrefix("hwm:")
	if len(all) != 2 || all["hwm:def"] != "3" {
		t.Fatalf("MetaPrefix(hwm:) = %v", all)
	}
	if got := s2.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}
