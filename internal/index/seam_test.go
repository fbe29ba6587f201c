package index

import (
	"math"
	"math/rand/v2"
	"testing"

	"geomob/internal/geo"
)

// TestKDTreeNearestAntimeridianFuzz: global entry sets with seam-adjacent
// queries — the geometry where the longitude split bound must respect the
// ±180° wrap.
func TestKDTreeNearestAntimeridianFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 40; trial++ {
		entries := make([]Entry, 40)
		for i := range entries {
			entries[i] = Entry{ID: int64(i), P: geo.Point{
				Lat: -60 + rng.Float64()*120,
				Lon: -180 + rng.Float64()*360,
			}}
		}
		tree, err := newKDTree(entries)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 500; q++ {
			p := geo.Point{Lat: -60 + rng.Float64()*120, Lon: -180 + rng.Float64()*360}
			if q%3 == 0 {
				p.Lon = 175 + rng.Float64()*10
				if p.Lon > 180 {
					p.Lon -= 360
				}
			}
			_, got := tree.nearest(p)
			want := math.Inf(1)
			for _, e := range entries {
				if d := geo.Haversine(p, e.P); d < want {
					want = d
				}
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d query %v: Nearest dist %v, brute force %v", trial, p, got, want)
			}
		}
	}
}
