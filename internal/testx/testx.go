// Package testx holds test-only helpers shared across packages. It is a
// normal (non _test) package so several packages' tests can import it,
// but it must only ever be imported from test files. It imports nothing
// of the module but geo, so the tests of every package above geo can use
// it.
package testx

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"

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

// SwapSnapshotRows returns a copy of a live snapshot file with user rows
// i and j of its part-th partial exchanged in the users section and that
// section's checksum recomputed: a file every CRC accepts whose user ids
// are out of ascending order. It knows only the file's framing
// (DESIGN.md §11): a 40-byte header, then per partial a 60-byte header
// and seven sections of payload length, CRC-32 and payload, the first
// section's rows an eight-byte id followed by four uvarints.
func SwapSnapshotRows(blob []byte, part, i, j int) []byte {
	out := append([]byte(nil), blob...)
	off := 40
	for k := 0; ; k++ {
		off += 60
		if k == part {
			break
		}
		for s := 0; s < 7; s++ {
			off += 8 + int(binary.LittleEndian.Uint32(out[off:]))
		}
	}
	p := out[off+8 : off+8+int(binary.LittleEndian.Uint32(out[off:]))]
	var rows [][]byte
	for at := 0; at < len(p); {
		start := at
		at += 8
		for v := 0; v < 4; v++ {
			_, n := binary.Uvarint(p[at:])
			at += n
		}
		rows = append(rows, append([]byte(nil), p[start:at]...))
	}
	rows[i], rows[j] = rows[j], rows[i]
	copy(p, bytes.Join(rows, nil))
	binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(p))
	return out
}

// RoundTripGolden passes each golden file — bytes a format's encoder
// wrote once, committed so that the format cannot drift unnoticed —
// through its round trip (decode, then encode again) and fails the test
// unless the bytes come back identical.
func RoundTripGolden(t testing.TB, goldens map[string]func(raw []byte) ([]byte, error)) {
	t.Helper()
	for file, roundTrip := range goldens {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		again, err := roundTrip(raw)
		if err != nil {
			t.Errorf("%s: %v", file, err)
		} else if !bytes.Equal(again, raw) {
			t.Errorf("%s: %d bytes re-encode to %d different bytes", file, len(raw), len(again))
		}
	}
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
