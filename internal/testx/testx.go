// Package testx holds test-only helpers shared across packages. It is a
// normal (non _test) package so several packages' tests can import it,
// but it must only ever be imported from test files.
package testx

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"

	"geomob/internal/core"
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

// ResultsBitEqual is BitEqual over two study results — the comparison the
// merge-contract property tests (DESIGN.md §4/§7/§8) are stated in.
func ResultsBitEqual(a, b *core.Result) bool {
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
