// Package testx holds test-only helpers shared across packages. It is a
// normal (non _test) package so several packages' tests can import it,
// but it must only ever be imported from test files. It imports nothing
// of the module but geo, so the tests of every package above geo can use
// it.
package testx

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"

	"geomob/internal/geo"
)

// BitEqual reports whether two values are bit-for-bit identical: floats
// compare by their IEEE-754 bits (NaN equals NaN, +0 differs from -0),
// everything else structurally. This is the repo's "bit-identical"
// invariant made executable — reflect.DeepEqual would falsely fail on
// identical NaNs from degenerate correlations.
func BitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Pointer() == b.Pointer() {
			return true
		}
		return BitEqual(a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return BitEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !BitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !BitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !BitEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !BitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// ValuesBitEqual is BitEqual over arbitrary values.
func ValuesBitEqual(a, b any) bool {
	return BitEqual(reflect.ValueOf(a), reflect.ValueOf(b))
}

// SwapSnapshotRows returns a copy of a live bucket snapshot blob with
// rows i and j exchanged in every column section and the section
// checksums recomputed: a blob every CRC accepts whose records are out of
// canonical order. It knows only the blob's framing (DESIGN.md §11): a
// 40-byte header with the row count at byte 32, then sections of id,
// payload length, CRC-32 and payload, each payload a whole number of
// equal-width rows.
func SwapSnapshotRows(blob []byte, i, j int) []byte {
	out := append([]byte(nil), blob...)
	n := int(binary.LittleEndian.Uint32(out[32:]))
	for off := 40; off < len(out); {
		l := int(binary.LittleEndian.Uint32(out[off+4:]))
		p := out[off+12 : off+12+l]
		w := l / n
		tmp := append([]byte(nil), p[i*w:(i+1)*w]...)
		copy(p[i*w:(i+1)*w], p[j*w:(j+1)*w])
		copy(p[j*w:(j+1)*w], tmp)
		binary.LittleEndian.PutUint32(out[off+8:], crc32.ChecksumIEEE(p))
		off += 12 + l
	}
	return out
}

// Destination returns the point reached by travelling dist metres from p on
// the initial bearing bearingDeg (degrees clockwise from north). Tests use
// it to place points at known distances from area centres.
func Destination(p geo.Point, bearingDeg, dist float64) geo.Point {
	lat1, lon1 := p.Radians()
	brg := bearingDeg * math.Pi / 180
	ang := dist / geo.EarthRadius
	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ang) * math.Cos(lat1)
	x := math.Cos(ang) - math.Sin(lat1)*sinLat2
	lon := (lon1 + math.Atan2(y, x)) * 180 / math.Pi
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return geo.Point{Lat: lat2 * 180 / math.Pi, Lon: lon}
}

// NewBBox returns the box spanning the two corner points in either order.
func NewBBox(a, b geo.Point) geo.BBox {
	return geo.BBox{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLon: math.Max(a.Lon, b.Lon),
	}
}

// BoundAround returns a bounding box guaranteed to contain the disc of the
// given radius (metres) centred at p. The box over-covers near the poles.
func BoundAround(p geo.Point, radius float64) geo.BBox {
	dLat := radius / geo.MetersPerDegreeLat
	dLon := 360.0 // polar degenerate case: cover all longitudes
	if mpl := geo.MetersPerDegreeLon(p.Lat); mpl >= 1 {
		dLon = radius / mpl
	}
	return geo.BBox{
		MinLat: math.Max(p.Lat-dLat, -90),
		MinLon: math.Max(p.Lon-dLon, -180),
		MaxLat: math.Min(p.Lat+dLat, 90),
		MaxLon: math.Min(p.Lon+dLon, 180),
	}
}
