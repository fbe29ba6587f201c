package wire

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.F64(math.Copysign(0, -1))
	w.Bool(true)
	w.Uvarint(300)
	w.Varint(-3)
	w.Zero(3)
	at := w.BeginSection()
	w.Raw([]byte("body"))
	w.EndSection(at)
	w.CRC(0)

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != 1<<63 {
		t.Errorf("F64 = %v, want -0", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -3 {
		t.Errorf("Varint = %d", v)
	}
	r.Zero(3)
	if body := r.Section(); string(body) != "body" {
		t.Errorf("Section = %q", body)
	}
	r.CRC(0)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyErrorAfterShortTake(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if b := r.Take(4); b != nil {
		t.Fatalf("Take(4) of 3 bytes = %v", b)
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "truncated at byte 0: 4 bytes wanted, 3 left") {
		t.Fatalf("Err = %v", err)
	}
	// Every later read yields zero and keeps the first failure.
	if v := r.U8(); v != 0 {
		t.Errorf("U8 after failure = %d", v)
	}
	if r.Len() != 0 || r.Count(1, 1) != 0 || r.Uvarint() != 0 || r.Section() != nil {
		t.Error("reads after a failure are not empty")
	}
	if got := r.End(); got == nil || got.Error() != err.Error() {
		t.Errorf("End = %v, want the first failure %v", got, err)
	}
}

func TestCountRefusesWithoutAllocating(t *testing.T) {
	buf := make([]byte, 64)
	for _, elem := range []int{1, 8, 40} {
		allocs := testing.AllocsPerRun(100, func() {
			r := NewReader(buf)
			if r.Count(math.MaxUint32, elem) != 0 {
				panic("count accepted")
			}
		})
		if allocs != 0 {
			t.Errorf("refusing a count of %d-byte elements allocated %v times", elem, allocs)
		}
		r := NewReader(buf)
		r.Count(math.MaxUint32, elem)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "count 4294967295 at byte 0 exceeds the 64 bytes left") {
			t.Errorf("Err = %v", err)
		}
	}
	r := NewReader(buf)
	if n := r.Count(8, 8); n != 8 || r.Err() != nil {
		t.Errorf("Count(8, 8) over 64 bytes = %d, %v", n, r.Err())
	}
	if n := r.Count(9, 8); n != 0 || r.Err() == nil {
		t.Errorf("Count(9, 8) over 64 bytes = %d, %v", n, r.Err())
	}
}

func TestUvarintRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"zero", []byte{0x00}, true},
		{"one byte", []byte{0x7f}, true},
		{"two bytes", []byte{0x80, 0x01}, true},
		{"zero padded to two bytes", []byte{0x80, 0x00}, false},
		{"one padded to three bytes", []byte{0x81, 0x80, 0x00}, false},
		{"truncated", []byte{0x80}, false},
		{"overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, false},
		{"empty", nil, false},
	} {
		r := NewReader(tc.in)
		r.Uvarint()
		if err := r.End(); (err == nil) != tc.ok {
			t.Errorf("%s % x: err = %v, want ok %v", tc.name, tc.in, err, tc.ok)
		}
		r = NewReader(tc.in)
		r.Varint()
		if err := r.End(); (err == nil) != tc.ok {
			t.Errorf("%s % x as a varint: err = %v, want ok %v", tc.name, tc.in, err, tc.ok)
		}
	}
}

// TestUvarintMatchesBinary holds Uvarint to encoding/binary's decoder
// plus the shortest-encoding rule, over every value width and over
// random bytes.
func TestUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		in := make([]byte, rng.IntN(12))
		for k := range in {
			in[k] = byte(rng.IntN(256))
		}
		if i%2 == 0 {
			in = binary.AppendUvarint(nil, rng.Uint64()>>rng.IntN(64))
		}
		want, n := binary.Uvarint(in)
		ok := n > 0 && (n == 1 || in[n-1] != 0)
		r := NewReader(in)
		got := r.Uvarint()
		if (r.Err() == nil) != ok || ok && (got != want || r.Off() != n) {
			t.Fatalf("% x: Uvarint = %d at %d, err %v; binary reads %d in %d bytes", in, got, r.Off(), r.Err(), want, n)
		}
	}
}

func TestZeroRejectsASetByte(t *testing.T) {
	r := NewReader([]byte{0, 0, 4, 0})
	r.Zero(4)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "reserved byte 2 is 0x4") {
		t.Fatalf("Err = %v", err)
	}
	r = NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Fatal("a bool byte of 2 was accepted")
	}
}

func TestSectionRejectsOverrunAndChecksum(t *testing.T) {
	var w Writer
	at := w.BeginSection()
	w.Raw([]byte("payload"))
	w.EndSection(at)
	good := w.Bytes()

	overrun := append([]byte(nil), good...)
	overrun[0]++ // claims one byte more than follows
	r := NewReader(overrun)
	if body := r.Section(); body != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
		t.Errorf("overrun: body %q, err %v", body, r.Err())
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	r = NewReader(flipped)
	if body := r.Section(); body != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "checksum mismatch at byte 8") {
		t.Errorf("flipped body: body %q, err %v", body, r.Err())
	}

	// An empty body is checked too: its CRC must be zero.
	r = NewReader([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	if r.Section(); r.Err() == nil {
		t.Error("an empty section with a nonzero checksum was accepted")
	}
}
