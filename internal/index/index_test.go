package index

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/randx"
	"geomob/internal/testx"
)

// randomAUPoint draws points within the paper's Australian study region,
// which is the domain these indexes serve.
func randomAUPoint(rng *rand.Rand) geo.Point {
	b := geo.AustraliaBBox
	return geo.Point{
		Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
	}
}

func makeEntries(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: int64(i), P: randomAUPoint(rng)}
	}
	return entries
}

// bruteRadius is the oracle for radius queries.
func bruteRadius(entries []Entry, p geo.Point, radius float64) map[int64]bool {
	out := map[int64]bool{}
	for _, e := range entries {
		if geo.Haversine(p, e.P) <= radius {
			out[e.ID] = true
		}
	}
	return out
}

func TestKDTreeNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	entries := makeEntries(rng, 500)
	tree, err := newKDTree(entries)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(entries) {
		t.Fatalf("Len = %d", tree.Len())
	}
	for trial := 0; trial < 200; trial++ {
		p := randomAUPoint(rng)
		_, gotDist := tree.nearest(p)
		bestDist := math.Inf(1)
		for _, e := range entries {
			if d := geo.Haversine(p, e.P); d < bestDist {
				bestDist = d
			}
		}
		// The winner must achieve the optimal distance (ties allowed).
		if math.Abs(gotDist-bestDist) > 1e-6 {
			t.Fatalf("trial %d: nearest dist %v, brute force %v", trial, gotDist, bestDist)
		}
	}
}

func TestKDTreeRadiusMatchesBruteForceAndSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	entries := makeEntries(rng, 800)
	tree, err := newKDTree(entries)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		p := randomAUPoint(rng)
		radius := rng.Float64() * 500_000
		want := bruteRadius(entries, p, radius)
		got := tree.Radius(p, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for _, e := range got {
			if !want[e.ID] {
				t.Fatalf("trial %d: unexpected id %d", trial, e.ID)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			return geo.Haversine(p, got[i].P) < geo.Haversine(p, got[j].P)
		}) {
			t.Fatalf("trial %d: results not sorted by distance", trial)
		}
	}
}

func TestKDTreeNearestWithin(t *testing.T) {
	sydney := geo.Point{Lat: -33.8688, Lon: 151.2093}
	melbourne := geo.Point{Lat: -37.8136, Lon: 144.9631}
	tree, err := newKDTree([]Entry{{ID: 1, P: sydney}, {ID: 2, P: melbourne}})
	if err != nil {
		t.Fatal(err)
	}
	near := testx.Destination(sydney, 45, 10_000)
	e, d, ok := tree.nearestWithin(near, 50_000)
	if !ok || e.ID != 1 {
		t.Fatalf("expected Sydney within 50km, got %+v ok=%v", e, ok)
	}
	if math.Abs(d-10_000) > 5 {
		t.Errorf("distance = %v, want ~10000", d)
	}
	if _, _, ok := tree.nearestWithin(near, 5_000); ok {
		t.Error("5km radius should exclude Sydney at 10km")
	}
}

func TestKDTreeSingleAndDuplicate(t *testing.T) {
	p := geo.Point{Lat: -20, Lon: 130}
	tree, err := newKDTree([]Entry{{ID: 1, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	e, d := tree.nearest(geo.Point{Lat: -21, Lon: 131})
	if e.ID != 1 || d <= 0 {
		t.Errorf("single-node nearest: %+v %v", e, d)
	}
	// Duplicate positions must all be returned by a radius query.
	dup, err := newKDTree([]Entry{{ID: 1, P: p}, {ID: 2, P: p}, {ID: 3, P: p}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dup.Radius(p, 1); len(got) != 3 {
		t.Errorf("duplicates: got %d, want 3", len(got))
	}
}

func TestKDTreeEmpty(t *testing.T) {
	if _, err := newKDTree(nil); err == nil {
		t.Error("empty tree should fail")
	}
}

func TestKDTreeNegativeRadius(t *testing.T) {
	tree, _ := newKDTree([]Entry{{ID: 1, P: geo.Point{Lat: -20, Lon: 130}}})
	if got := tree.Radius(geo.Point{Lat: -20, Lon: 130}, -1); got != nil {
		t.Error("negative radius should return nil")
	}
}

// BenchmarkKDTreeNearest measures the exact tree walk the Resolver falls
// back to, over the national areas; the root BenchmarkAreaAssign runs the
// Resolver on the same entries and query mix.
func BenchmarkKDTreeNearest(b *testing.B) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]Entry, rs.Len())
	for i, a := range rs.Areas {
		entries[i] = Entry{ID: int64(i), P: a.Center}
	}
	tree, err := newKDTree(entries)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(3, 4)
	queries := make([]geo.Point, 1024)
	for i := range queries {
		queries[i] = geo.Point{Lat: -44 + rng.Float64()*30, Lon: 114 + rng.Float64()*40}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.nearest(queries[i%len(queries)])
	}
}
