// Package wire is the byte layer every binary format of the module is
// written and read through: an append-only Writer and a bounded Reader
// over little-endian fixed-width fields, canonical varints, reserved
// bytes and (u32 length, u32 CRC-32) sections. It shares primitives, not
// layouts — each format's fields and their order stay with the package
// that owns the format (DESIGN.md §9 has the table).
//
// The Reader applies the rules every decoder needs, once:
//
//   - the first failure sticks: later reads yield zeros and empty slices,
//     and Err reports where the input first went wrong;
//   - a claimed count must fit the bytes left (Count), checked before the
//     caller allocates for it;
//   - reserved bytes must be zero (Zero) and bools 0 or 1;
//   - a varint must be the shortest encoding of its value.
//
// A decoder that also checks its own invariants therefore accepts only
// what its encoder writes.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// U32 and U64 read a little-endian value at the start of b, for column
// bodies a Reader has already bounded and for data read in place.
func U32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// U64 is U32 for eight bytes.
func U64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Writer appends fields to a byte slice.
type Writer struct{ buf []byte }

// NewWriter returns a Writer appending to dst.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns everything written, dst's prefix included.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns len(Bytes()).
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for n more bytes without a further allocation.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// U8, U16, U32, U64, I64 and F64 write one fixed-width little-endian
// field; a float travels as its IEEE-754 bits, so it reads back exact.
func (w *Writer) U8(v byte)     { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint writes v as a uvarint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint writes v zig-zag encoded as a uvarint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool writes 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b as it is.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Zero writes n reserved zero bytes.
func (w *Writer) Zero(n int) { w.buf = append(w.buf, make([]byte, n)...) }

// SetU32 overwrites the four bytes at offset at, for a field whose value
// is known only once what follows it is written.
func (w *Writer) SetU32(at int, v uint32) { binary.LittleEndian.PutUint32(w.buf[at:], v) }

// CRC writes the CRC-32 (IEEE) of everything written from offset from.
func (w *Writer) CRC(from int) { w.U32(crc32.ChecksumIEEE(w.buf[from:])) }

// BeginSection reserves a section header and returns its offset; write
// the body, then call EndSection with that offset.
func (w *Writer) BeginSection() int {
	at := len(w.buf)
	w.Zero(8)
	return at
}

// EndSection fills the header reserved at offset at with the length and
// CRC-32 of everything written since.
func (w *Writer) EndSection(at int) {
	body := w.buf[at+8:]
	w.SetU32(at, uint32(len(body)))
	w.SetU32(at+4, crc32.ChecksumIEEE(body))
}

// Reader consumes fields from a byte slice, latching the first failure.
type Reader struct {
	buf  []byte
	off  int
	fail failure
}

// failure records a Reader's first failure without allocating, so a
// refused count costs nothing until Err formats it: format takes the
// byte offset and the two values by index.
type failure struct {
	format string
	at     int
	a, b   uint64
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Len returns the number of bytes left; zero after a failure.
func (r *Reader) Len() int {
	if r.fail.format != "" {
		return 0
	}
	return len(r.buf) - r.off
}

// Off returns the offset of the next byte to read.
func (r *Reader) Off() int { return r.off }

func (r *Reader) setFail(format string, at int, a, b uint64) {
	if r.fail.format == "" {
		r.fail = failure{format: format, at: at, a: a, b: b}
	}
}

// Err returns the first failure, nil if every read so far succeeded.
func (r *Reader) Err() error {
	if f := r.fail; f.format != "" {
		return fmt.Errorf(f.format, f.at, f.a, f.b)
	}
	return nil
}

// End fails the Reader if bytes are left, then returns Err.
func (r *Reader) End() error {
	if n := r.Len(); n > 0 {
		r.setFail("wire: %[2]d trailing bytes at byte %[1]d", r.off, uint64(n), 0)
	}
	return r.Err()
}

// Take returns the next n bytes, capacity-limited so an append cannot
// reach past them, or nil once the Reader has failed.
func (r *Reader) Take(n int) []byte {
	if r.fail.format != "" {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.setFail("wire: truncated at byte %[1]d: %[2]d bytes wanted, %[3]d left", r.off, uint64(n), uint64(len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Count returns claimed as an int if the bytes left can hold that many
// elements of at least elemBytes bytes each, and fails the Reader
// otherwise (returning 0) — before the caller allocates anything for
// them.
func (r *Reader) Count(claimed uint64, elemBytes int) int {
	if left := r.Len(); claimed > uint64(left/elemBytes) {
		r.setFail("wire: count %[2]d at byte %[1]d exceeds the %[3]d bytes left", r.off, claimed, uint64(left))
		return 0
	}
	return int(claimed)
}

// zeros stands in for the bytes of a fixed-width read once the Reader
// has failed.
var zeros [8]byte

// fixed returns the next n bytes, n at most eight, or n zeros once the
// Reader has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U16, U32, U64, I64 and F64 read one fixed-width little-endian
// field, zero once the Reader has failed.
func (r *Reader) U8() byte     { return r.fixed(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	at := r.off
	v := r.U8()
	if v > 1 {
		r.setFail("wire: bool byte %[1]d is %[2]d, want 0 or 1", at, uint64(v), 0)
		return false
	}
	return v == 1
}

// Uvarint reads a uvarint that must be the shortest encoding of its
// value, so an accepted input re-encodes to itself.
func (r *Reader) Uvarint() uint64 {
	if r.fail.format == "" {
		var v uint64
		for i, s := 0, uint(0); i < 10 && r.off+i < len(r.buf); i, s = i+1, s+7 {
			b := r.buf[r.off+i]
			if b < 0x80 {
				if i == 9 && b > 1 || i > 0 && b == 0 {
					break // past 64 bits, or not the shortest encoding
				}
				r.off += i + 1
				return v | uint64(b)<<s
			}
			v |= uint64(b&0x7f) << s
		}
	}
	r.setFail("wire: malformed or non-canonical varint at byte %[1]d", r.off, 0, 0)
	return 0
}

// Varint reads a zig-zag varint under Uvarint's rule.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Zero reads n reserved bytes, all of which must be zero.
func (r *Reader) Zero(n int) {
	at := r.off
	for i, c := range r.Take(n) {
		if c != 0 {
			r.setFail("wire: reserved byte %[1]d is %#[2]x, want 0", at+i, uint64(c), 0)
			return
		}
	}
}

// Checked reads n bytes whose CRC-32 (IEEE) must equal crc.
func (r *Reader) Checked(n int, crc uint32) []byte {
	at := r.off
	b := r.Take(n)
	if r.fail.format != "" {
		return nil
	}
	if got := crc32.ChecksumIEEE(b); got != crc {
		r.setFail("wire: checksum mismatch at byte %[1]d (stored %08[2]x, computed %08[3]x)", at, uint64(crc), uint64(got))
		return nil
	}
	return b
}

// Section reads a (u32 length, u32 CRC-32) header and the body it
// describes, failing on a length past the end or a checksum mismatch.
func (r *Reader) Section() []byte {
	n := r.U32()
	crc := r.U32()
	return r.Checked(int(n), crc)
}

// CRC reads a u32 that must be the CRC-32 of the bytes read from offset
// from up to it: the trailer of a fixed-size header.
func (r *Reader) CRC(from int) {
	at := r.off
	got := r.U32()
	if want := crc32.ChecksumIEEE(r.buf[from:at]); r.fail.format == "" && got != want {
		r.setFail("wire: checksum mismatch at byte %[1]d (stored %08[2]x, computed %08[3]x)", at, uint64(got), uint64(want))
	}
}
