package testx

import (
	"math"
	"testing"
	"testing/quick"

	"geomob/internal/geo"
)

var sydney = geo.Point{Lat: -33.8688, Lon: 151.2093}

// wrap maps an arbitrary quick.Check seed into (-bound, bound).
func wrap(v, bound float64) float64 {
	v = math.Mod(v, bound)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func TestDestinationRoundTrip(t *testing.T) {
	// Travelling dist metres then measuring the distance back must agree.
	f := func(latSeed, lonSeed, brgSeed, distSeed float64) bool {
		p := geo.Point{Lat: wrap(latSeed, 90) * 0.8, Lon: wrap(lonSeed, 180)} // keep away from poles
		brg := math.Mod(math.Abs(brgSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 2_000_000) // up to 2000 km
		q := Destination(p, brg, dist)
		if !q.Valid() {
			return false
		}
		return math.Abs(geo.Haversine(p, q)-dist) < 1.0 // within 1 m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDestinationKnownBearing(t *testing.T) {
	// 100 km due north from Sydney raises latitude by ~0.8993 degrees.
	q := Destination(sydney, 0, 100_000)
	wantLat := sydney.Lat + 100_000/geo.MetersPerDegreeLat
	if math.Abs(q.Lat-wantLat) > 1e-6 {
		t.Errorf("north lat: got %v want %v", q.Lat, wantLat)
	}
	if math.Abs(q.Lon-sydney.Lon) > 1e-9 {
		t.Errorf("north lon changed: %v", q.Lon)
	}
}

func TestBoundAroundCoversDisc(t *testing.T) {
	f := func(latSeed, lonSeed, brgSeed float64) bool {
		p := geo.Point{Lat: wrap(latSeed, 90) * 0.9, Lon: wrap(lonSeed, 180)}
		radius := 50_000.0
		box := BoundAround(p, radius)
		brg := math.Mod(math.Abs(brgSeed), 360)
		edge := Destination(p, brg, radius*0.999)
		return box.Contains(edge)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundAroundPolar(t *testing.T) {
	box := BoundAround(geo.Point{Lat: 89.999, Lon: 0}, 100_000)
	if box.MaxLat != 90 {
		t.Errorf("polar box should clamp MaxLat to 90, got %v", box.MaxLat)
	}
	if box.MinLon != -180 || box.MaxLon != 180 {
		t.Errorf("polar box should span all longitudes, got %+v", box)
	}
}
