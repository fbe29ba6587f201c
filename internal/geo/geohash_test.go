package geo

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// encodeGeohash is the standard base-32 geohash string of p, the reference
// GeohashCellID is checked against.
func encodeGeohash(p Point, precision int) string {
	const base32 = "0123456789bcdefghjkmnpqrstuvwxyz"
	id := GeohashCellID(p, precision)
	var sb strings.Builder
	for shift := 5 * (bitLen(id) / 5); shift > 0; {
		shift -= 5
		sb.WriteByte(base32[id>>shift&31])
	}
	return sb.String()
}

// bitLen is the number of bits below the sentinel of a cell ID.
func bitLen(id uint64) int {
	n := 0
	for id > 1 {
		id >>= 1
		n++
	}
	return n
}

// cellBox returns the bounding box of the cell an ID names, decoding its
// bits independently of GeohashCellID's encoding loop.
func cellBox(id uint64) BBox {
	b := BBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	n := bitLen(id)
	for i := 0; i < n; i++ {
		bit := id >> (n - 1 - i) & 1
		if i%2 == 0 {
			mid := (b.MinLon + b.MaxLon) / 2
			if bit == 1 {
				b.MinLon = mid
			} else {
				b.MaxLon = mid
			}
		} else {
			mid := (b.MinLat + b.MaxLat) / 2
			if bit == 1 {
				b.MinLat = mid
			} else {
				b.MaxLat = mid
			}
		}
	}
	return b
}

func TestGeohashKnownValues(t *testing.T) {
	cases := []struct {
		p    Point
		hash string
	}{
		// Reference values from the canonical geohash implementation.
		{Point{Lat: 57.64911, Lon: 10.40744}, "u4pruydqqvj"},
		{Point{Lat: -33.8688, Lon: 151.2093}, "r3gx2f7"},
		{Point{Lat: 0, Lon: 0}, "s0000"},
	}
	for _, c := range cases {
		got := encodeGeohash(c.p, len(c.hash))
		if got != c.hash {
			t.Errorf("geohash(%v, %d) = %q, want %q", c.p, len(c.hash), got, c.hash)
		}
	}
}

func TestGeohashRoundTrip(t *testing.T) {
	f := func(latSeed, lonSeed float64) bool {
		p := Point{clampLat(latSeed), wrapLon(lonSeed)}
		for prec := 1; prec <= 12; prec++ {
			id := GeohashCellID(p, prec)
			if bitLen(id) != 5*prec || !cellBox(id).Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeohashPrefixNesting(t *testing.T) {
	// The cell of a longer hash must be contained in the cell of its prefix.
	p := Point{Lat: -27.4698, Lon: 153.0251}
	inner := GeohashCellID(p, 9)
	if outer := GeohashCellID(p, 4); inner>>25 != outer {
		t.Fatalf("precision-4 cell %x is not the prefix of precision-9 cell %x", outer, inner)
	}
	outer, in := cellBox(inner>>25), cellBox(inner)
	for _, corner := range []Point{{in.MinLat, in.MinLon}, {in.MaxLat, in.MaxLon}} {
		if !outer.Contains(corner) {
			t.Errorf("outer cell does not contain inner corner %v", corner)
		}
	}
}

func TestGeohashPrecisionClamping(t *testing.T) {
	p := Point{Lat: 10, Lon: 10}
	if got := GeohashCellID(p, 0); got != GeohashCellID(p, 1) {
		t.Errorf("precision 0 should clamp to 1, got %x", got)
	}
	if got := GeohashCellID(p, 99); got != GeohashCellID(p, 12) {
		t.Errorf("precision 99 should clamp to 12, got %x", got)
	}
}

func TestGeohashCenterAccuracy(t *testing.T) {
	p := Point{Lat: -33.8688, Lon: 151.2093}
	c := cellBox(GeohashCellID(p, 8)).Center()
	if d := Haversine(p, c); d > 40 { // 8 chars resolves to ~19 m x 19 m
		t.Errorf("centre too far from original point: %.1f m", d)
	}
}

func TestGeohashCellSizeShrinks(t *testing.T) {
	p := Point{Lat: -37.8136, Lon: 144.9631}
	prev := math.Inf(1)
	for prec := 1; prec <= 10; prec++ {
		box := cellBox(GeohashCellID(p, prec))
		size := (box.MaxLat - box.MinLat) * (box.MaxLon - box.MinLon)
		if size >= prev {
			t.Errorf("cell area did not shrink at precision %d: %v >= %v", prec, size, prev)
		}
		prev = size
	}
}

// TestGeohashCellIDMatchesString: the integer cell ID must induce exactly
// the same partition of the plane as the cell box it names — two points
// share an ID at a precision iff both lie in that ID's box — because the
// mobility extractor counts distinct cells through the ID.
func TestGeohashCellIDMatchesString(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	randPoint := func() Point {
		return Point{Lat: -90 + rng.Float64()*180, Lon: -180 + rng.Float64()*360}
	}
	var pts []Point
	for i := 0; i < 3000; i++ {
		pts = append(pts, randPoint())
	}
	// Adversarial points on subdivision boundaries, where >= vs > would
	// first disagree between encoder and decoder.
	for _, lat := range []float64{-90, -45, 0, 45, 90, -33.75, 11.25} {
		for _, lon := range []float64{-180, -90, 0, 90, 180, 151.171875, -0.0000001} {
			pts = append(pts, Point{Lat: lat, Lon: lon})
		}
	}
	// Pairs nudged a ULP apart straddle cell edges at high precisions.
	for i := 0; i < 500; i++ {
		p := randPoint()
		pts = append(pts, p, Point{Lat: math.Nextafter(p.Lat, 90), Lon: p.Lon})
	}
	for _, prec := range []int{1, 3, 5, 8, 12} {
		for _, p := range pts {
			id := GeohashCellID(p, prec)
			b := cellBox(id)
			// A point on a cell's low edge belongs to the cell; one on its
			// high edge belongs to the next, except at the poles and ±180°.
			inside := p.Lat >= b.MinLat && (p.Lat < b.MaxLat || b.MaxLat == 90) &&
				p.Lon >= b.MinLon && (p.Lon < b.MaxLon || b.MaxLon == 180)
			if !inside {
				t.Fatalf("precision %d: %v not in the half-open box %+v of its cell %x", prec, p, b, id)
			}
		}
	}
	// IDs of different precisions never collide (sentinel bit).
	if GeohashCellID(Point{}, 1) == GeohashCellID(Point{}, 2) {
		t.Error("cell IDs of different precisions collide")
	}
}
