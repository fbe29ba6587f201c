package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference city coordinates used across the geo tests.
var (
	sydney    = Point{Lat: -33.8688, Lon: 151.2093}
	melbourne = Point{Lat: -37.8136, Lon: 144.9631}
	perth     = Point{Lat: -31.9523, Lon: 115.8613}
	brisbane  = Point{Lat: -27.4698, Lon: 153.0251}
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // metres
		tol  float64 // relative tolerance
	}{
		{"sydney-melbourne", sydney, melbourne, 713_000, 0.01},
		{"sydney-perth", sydney, perth, 3_290_000, 0.01},
		{"sydney-brisbane", sydney, brisbane, 732_000, 0.01},
		{"zero", sydney, sydney, 0, 0},
		{"equator-quarter", Point{0, 0}, Point{0, 90}, math.Pi / 2 * EarthRadius, 1e-9},
		{"pole-to-pole", Point{90, 0}, Point{-90, 0}, math.Pi * EarthRadius, 1e-9},
	}
	for _, c := range cases {
		got := Haversine(c.a, c.b)
		if c.want == 0 {
			if got != 0 {
				t.Errorf("%s: got %v, want 0", c.name, got)
			}
			continue
		}
		if rel := math.Abs(got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s: got %.0f m, want %.0f m (rel err %.4f)", c.name, got, c.want, rel)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), wrapLon(lon1)}
		b := Point{clampLat(lat2), wrapLon(lon2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{clampLat(lat1), wrapLon(lon1)}
		b := Point{clampLat(lat2), wrapLon(lon2)}
		c := Point{clampLat(lat3), wrapLon(lon3)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHaversineNonNegative(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), wrapLon(lon1)}
		b := Point{clampLat(lat2), wrapLon(lon2)}
		d := Haversine(a, b)
		return d >= 0 && d <= math.Pi*EarthRadius+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {-90, -180}, {90, 180}, sydney}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestBBoxContainsExtend(t *testing.T) {
	b := EmptyBBox()
	if !b.IsEmpty() {
		t.Fatal("EmptyBBox not empty")
	}
	b = b.Extend(sydney)
	if b.IsEmpty() || !b.Contains(sydney) {
		t.Fatal("box should contain its only point")
	}
	b = b.Extend(perth)
	for _, p := range []Point{sydney, perth, {Lat: (sydney.Lat + perth.Lat) / 2, Lon: (sydney.Lon + perth.Lon) / 2}} {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(Point{0, 0}) {
		t.Error("box should not contain the origin")
	}
}

func TestBBoxUnionIntersects(t *testing.T) {
	b1 := BBox{MinLat: -35, MinLon: 150, MaxLat: -33, MaxLon: 152}
	b2 := BBox{MinLat: -34, MinLon: 151, MaxLat: -32, MaxLon: 153}
	b3 := BBox{MinLat: -20, MinLon: 130, MaxLat: -19, MaxLon: 131}
	if !b1.Intersects(b2) || !b2.Intersects(b1) {
		t.Error("b1 and b2 should intersect")
	}
	if b1.Intersects(b3) {
		t.Error("b1 and b3 should not intersect")
	}
	u := b1.Union(b3)
	for _, p := range []Point{{-34, 151}, {-19.5, 130.5}} {
		if !u.Contains(p) {
			t.Errorf("union should contain %v", p)
		}
	}
	if got := EmptyBBox().Union(b1); got != b1 {
		t.Error("empty union b1 should be b1")
	}
	if got := b1.Union(EmptyBBox()); got != b1 {
		t.Error("b1 union empty should be b1")
	}
}

func TestAustraliaBBox(t *testing.T) {
	for _, p := range []Point{sydney, melbourne, perth, brisbane} {
		if !AustraliaBBox.Contains(p) {
			t.Errorf("Australia box should contain %v", p)
		}
	}
	if AustraliaBBox.Contains(Point{40.7, -74.0}) { // New York
		t.Error("Australia box should not contain New York")
	}
}

func TestMetersPerDegreeLon(t *testing.T) {
	if got := MetersPerDegreeLon(0); math.Abs(got-MetersPerDegreeLat) > 1e-6 {
		t.Errorf("equator: got %v want %v", got, MetersPerDegreeLat)
	}
	if got := MetersPerDegreeLon(90); math.Abs(got) > 1e-6 {
		t.Errorf("pole: got %v want 0", got)
	}
	if got := MetersPerDegreeLon(60); math.Abs(got-MetersPerDegreeLat/2) > 1 {
		t.Errorf("60deg: got %v want %v", got, MetersPerDegreeLat/2)
	}
}

func clampLat(v float64) float64 {
	v = math.Mod(v, 90)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func wrapLon(v float64) float64 {
	v = math.Mod(v, 180)
	if math.IsNaN(v) {
		return 0
	}
	return v
}
