// Package geo provides geodesic primitives on the WGS-84 sphere:
// points, distances, bearings, destination points and bounding boxes.
//
// All angles at the package boundary are expressed in decimal degrees and
// all distances in metres unless a name says otherwise. Computations use a
// spherical Earth of radius EarthRadius, which is accurate to ~0.5% — far
// below the noise floor of GPS-tagged social-media data.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in metres (IUGG).
const EarthRadius = 6371008.8

// Point is a WGS-84 coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, degrees, [-90, 90]
	Lon float64 // longitude, degrees, [-180, 180]
}

// Valid reports whether p lies within the legal WGS-84 ranges and is not NaN.
func (p Point) Valid() bool {
	if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
		return false
	}
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the point as "lat,lon" with six decimal places (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

// Radians returns the latitude and longitude converted to radians.
func (p Point) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// Distance returns the great-circle distance in metres between p and q.
func (p Point) Distance(q Point) float64 { return Haversine(p, q) }

// Haversine returns the great-circle distance in metres between a and b
// using the haversine formula, which is numerically stable for small
// separations (unlike the spherical law of cosines).
func Haversine(a, b Point) float64 {
	lat1, lon1 := a.Radians()
	lat2, lon2 := b.Radians()
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// MetersPerDegreeLat is the north–south extent of one degree of latitude.
const MetersPerDegreeLat = EarthRadius * math.Pi / 180

// MetersPerDegreeLon returns the east–west extent in metres of one degree of
// longitude at the given latitude (degrees).
func MetersPerDegreeLon(latDeg float64) float64 {
	return MetersPerDegreeLat * math.Cos(latDeg*math.Pi/180)
}

// BBox is an axis-aligned bounding box in degrees. A box never crosses the
// antimeridian; callers working near ±180° must split queries themselves
// (Australia, the paper's study region, is safely clear of it).
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// EmptyBBox returns a degenerate box that contains nothing and expands to
// exactly the first point added via Extend.
func EmptyBBox() BBox {
	return BBox{MinLat: 91, MinLon: 181, MaxLat: -91, MaxLon: -181}
}

// IsEmpty reports whether the box is the degenerate empty box.
func (b BBox) IsEmpty() bool { return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon }

// Contains reports whether p lies inside the box (inclusive of edges).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Extend grows the box to include p and returns the result.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		MinLat: math.Min(b.MinLat, o.MinLat),
		MinLon: math.Min(b.MinLon, o.MinLon),
		MaxLat: math.Max(b.MaxLat, o.MaxLat),
		MaxLon: math.Max(b.MaxLon, o.MaxLon),
	}
}

// Intersects reports whether the two boxes share any point.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinLat <= o.MaxLat && o.MinLat <= b.MaxLat &&
		b.MinLon <= o.MaxLon && o.MinLon <= b.MaxLon
}

// Center returns the centre point of the box.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// AustraliaBBox is the study region used throughout the paper (Table I):
// longitude [112.921112, 159.278717], latitude [-54.640301, -9.228820].
var AustraliaBBox = BBox{
	MinLat: -54.640301,
	MinLon: 112.921112,
	MaxLat: -9.228820,
	MaxLon: 159.278717,
}
