package tweet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// randomBatch builds n records mixing ordinary study-region coordinates
// with wire edge cases: poles, the antimeridian, negative and far-future
// timestamps. The frame codec carries coordinates as raw float64 bits, so
// round trips must be bit-exact — no quantisation tolerance.
func randomBatch(rng *rand.Rand, n int) *Batch {
	b := &Batch{}
	b.Grow(n)
	for i := 0; i < n; i++ {
		tw := Tweet{
			ID:     rng.Int64N(1 << 50),
			UserID: rng.Int64N(1 << 40),
			TS:     rng.Int64N(1<<52) - (1 << 51), // negative and far-future
			Lat:    -90 + rng.Float64()*180,
			Lon:    -180 + rng.Float64()*360,
		}
		switch rng.IntN(10) {
		case 0:
			tw.Lat, tw.Lon = 90, 180 // north pole on the antimeridian
		case 1:
			tw.Lat, tw.Lon = -90, -180
		case 2:
			tw.Lon = 180 // antimeridian, either sign
		case 3:
			tw.Lon = -180
		}
		b.Append(tw)
	}
	return b
}

func batchesEqual(a, b *Batch) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Row(i) != b.Row(i) {
			return false
		}
	}
	return true
}

func TestBatchFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var buf bytes.Buffer
	w := NewBatchWriter(&buf)
	var want []*Batch
	records := int64(0)
	for _, n := range []int{1, 7, 1000, 0, 8192} {
		b := randomBatch(rng, n)
		want = append(want, b)
		records += int64(n)
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if w.Total() != records {
		t.Errorf("Total = %d, want %d records", w.Total(), records)
	}
	r := NewBatchReader(&buf, 0)
	got := &Batch{}
	for i := 0; ; i++ {
		err := r.Read(got)
		if errors.Is(err, io.EOF) {
			if i != len(want) {
				t.Fatalf("read %d frames, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) {
			t.Fatalf("unexpected extra frame %d", i)
		}
		if !batchesEqual(got, want[i]) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	// A latched reader keeps returning EOF.
	if err := r.Read(got); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF read: %v", err)
	}
}

func TestBatchFrameProperty(t *testing.T) {
	f := func(seed uint64, nSeed uint16) bool {
		local := rand.New(rand.NewPCG(seed, uint64(nSeed)))
		b := randomBatch(local, 1+int(nSeed)%257)
		frame, err := AppendFrame(nil, b)
		if err != nil {
			return false
		}
		got := &Batch{}
		if err := NewBatchReader(bytes.NewReader(frame), 0).Read(got); err != nil {
			return false
		}
		return batchesEqual(b, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBatchFrameCorruptColumnCRC(t *testing.T) {
	b := randomBatch(rand.New(rand.NewPCG(31, 32)), 100)
	frame, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first column's data (after the 16-byte
	// frame header and the 8-byte column header).
	corrupt := append([]byte(nil), frame...)
	corrupt[24] ^= 0xff
	got := &Batch{}
	err = NewBatchReader(bytes.NewReader(corrupt), 0).Read(got)
	if err == nil {
		t.Fatal("corrupted column accepted")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("want checksum error, got %v", err)
	}
}

func TestBatchFrameArbitraryCorruptionNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	b := randomBatch(rng, 64)
	frame, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	got := &Batch{}
	// Every single-byte flip either still round-trips (flips confined to
	// unchecked reserved bits do not exist in this format — every region
	// is length- or CRC-checked) or fails cleanly. Either way: no panic.
	for off := 0; off < len(frame); off++ {
		corrupt := append([]byte(nil), frame...)
		corrupt[off] ^= 0xa5
		r := NewBatchReader(bytes.NewReader(corrupt), 0)
		if err := r.Read(got); err == nil && !batchesEqual(got, b) {
			t.Fatalf("byte %d: silent corruption accepted", off)
		}
	}
	// Random truncations fail cleanly too.
	for i := 0; i < 200; i++ {
		cut := rng.IntN(len(frame))
		r := NewBatchReader(bytes.NewReader(frame[:cut]), 0)
		for {
			if err := r.Read(got); err != nil {
				break
			}
		}
	}
}

func TestBatchFrameSizeLimits(t *testing.T) {
	b := randomBatch(rand.New(rand.NewPCG(51, 52)), 1000)
	frame, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	// A reader with a tight cap refuses the frame with the 413 sentinel.
	err = NewBatchReader(bytes.NewReader(frame), 128).Read(&Batch{})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
	// A corrupt length prefix smaller than the fixed header is rejected
	// before any allocation.
	short := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(short[:4], 10)
	err = NewBatchReader(bytes.NewReader(short), 0).Read(&Batch{})
	if err == nil || !strings.Contains(err.Error(), "corrupt batch frame length") {
		t.Errorf("want corrupt-length error, got %v", err)
	}
	// An absurd length prefix trips the default cap rather than an OOM.
	huge := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(huge[:4], 1<<31)
	err = NewBatchReader(bytes.NewReader(huge), 0).Read(&Batch{})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge for absurd prefix, got %v", err)
	}
}

func TestFrameRows(t *testing.T) {
	frame, err := AppendFrame(nil, randomBatch(rand.New(rand.NewPCG(81, 82)), 7))
	if err != nil {
		t.Fatal(err)
	}
	if got := FrameRows(frame); got != 7 {
		t.Fatalf("FrameRows = %d, want 7", got)
	}
	if got := FrameRows(nil); got != 0 {
		t.Fatalf("FrameRows(nil) = %d, want 0", got)
	}
}

// FuzzBatchFrameDecode runs the frame stream decoder over arbitrary
// bytes. It must never panic, and every frame it accepts must re-encode
// to exactly the bytes it was decoded from.
func FuzzBatchFrameDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(61, 62))
	for _, n := range []int{1, 3, 100} {
		frame, err := AppendFrame(nil, randomBatch(rng, n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// The reserved u16 after the version, set: no CRC covers it, so only
	// the reserved-bytes rule refuses it.
	frame, err := AppendFrame(nil, randomBatch(rng, 2))
	if err != nil {
		f.Fatal(err)
	}
	frame[4+6] = 1
	if err := NewBatchReader(bytes.NewReader(frame), 0).Read(&Batch{}); err == nil {
		f.Fatal("a frame with its reserved bytes set was accepted")
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := NewBatchReader(src, 0)
		b := &Batch{}
		for start := 0; ; {
			if err := r.Read(b); err != nil {
				return // clean error or EOF — never a panic
			}
			end := len(data) - src.Len()
			frame, err := AppendFrame(nil, b)
			if err != nil {
				t.Fatalf("re-encode of decoded batch: %v", err)
			}
			if !bytes.Equal(frame, data[start:end]) {
				t.Fatalf("the frame at byte %d: %d accepted bytes re-encode to %d different bytes", start, end-start, len(frame))
			}
			start = end
		}
	})
}

func TestBatchSortAndValidate(t *testing.T) {
	b := &Batch{}
	for _, tw := range []Tweet{
		{ID: 3, UserID: 2, TS: 100, Lat: 1, Lon: 1},
		{ID: 1, UserID: 1, TS: 300, Lat: 1, Lon: 1},
		{ID: 2, UserID: 1, TS: 200, Lat: 1, Lon: 1},
		{ID: 4, UserID: 2, TS: 100, Lat: 1, Lon: 1},
	} {
		b.Append(tw)
	}
	if b.IsSorted() {
		t.Error("unsorted batch reported sorted")
	}
	b.Sort()
	if !b.IsSorted() {
		t.Error("sorted batch reported unsorted")
	}
	wantIDs := []int64{2, 1, 3, 4}
	for i, id := range wantIDs {
		if b.ID[i] != id {
			t.Fatalf("sort order: got %v", b.ID)
		}
	}
	if err := b.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	bad := &Batch{}
	bad.Append(Tweet{ID: 1, UserID: 1, Lat: 95, Lon: 0})
	if err := bad.Validate(); err == nil {
		t.Error("invalid coordinates accepted")
	}
	ragged := &Batch{ID: []int64{1, 2}, UserID: []int64{1}, TS: []int64{1, 2}, Lat: []float64{0, 0}, Lon: []float64{0, 0}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged batch accepted")
	}
}

// TestBatchSortMatchesStableReference pins the sort's full contract: the
// order of sort.SliceStable over (user, time, id) — so records with equal
// keys keep their input order — on random, sorted, reversed, all-equal and
// one-row inputs, with SortInto leaving its receiver untouched.
func TestBatchSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	inputs := map[string]*Batch{"one row": randomBatch(rng, 1), "empty": {}}
	for _, n := range []int{2, 17, 1000, 5000} {
		// A narrow key space, so most keys repeat with differing coordinates.
		dup := randomBatch(rng, n)
		for i := 0; i < n; i++ {
			dup.UserID[i], dup.TS[i], dup.ID[i] = rng.Int64N(5), rng.Int64N(3), rng.Int64N(2)
		}
		inputs[fmt.Sprintf("duplicates %d", n)] = dup
		inputs[fmt.Sprintf("random %d", n)] = randomBatch(rng, n)
		// Every byte of the user id in play, both signs.
		wide := randomBatch(rng, n)
		for i := range wide.UserID {
			wide.UserID[i] = int64(rng.Uint64())
		}
		inputs[fmt.Sprintf("full-range users %d", n)] = wide
		sorted := randomBatch(rng, n)
		sorted.Sort()
		inputs[fmt.Sprintf("sorted %d", n)] = sorted
		rev := BatchOf(sorted.Rows())
		slices.Reverse(rev.ID)
		slices.Reverse(rev.UserID)
		slices.Reverse(rev.TS)
		slices.Reverse(rev.Lat)
		slices.Reverse(rev.Lon)
		inputs[fmt.Sprintf("reversed %d", n)] = rev
	}
	for name, in := range inputs {
		want := in.Rows()
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.UserID != b.UserID {
				return a.UserID < b.UserID
			}
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			return a.ID < b.ID
		})
		before := in.Rows()
		into := randomBatch(rng, 3) // stale contents must not survive
		in.SortInto(into)
		if !slices.Equal(into.Rows(), want) {
			t.Errorf("%s: SortInto differs from the stable reference", name)
		}
		if !slices.Equal(in.Rows(), before) {
			t.Errorf("%s: SortInto changed its receiver", name)
		}
		in.Sort()
		if !slices.Equal(in.Rows(), want) || !in.IsSorted() {
			t.Errorf("%s: Sort differs from the stable reference", name)
		}
	}
}

func TestBatchSliceAliases(t *testing.T) {
	b := randomBatch(rand.New(rand.NewPCG(71, 72)), 10)
	s := b.Slice(2, 7)
	if s.Len() != 5 {
		t.Fatalf("slice len %d", s.Len())
	}
	for i := 0; i < 5; i++ {
		if s.Row(i) != b.Row(i+2) {
			t.Fatalf("slice row %d mismatch", i)
		}
	}
	// The slice is a view: mutating it shows through.
	s.ID[0] = -99
	if b.ID[2] != -99 {
		t.Error("Slice copied instead of aliasing")
	}
}

func TestBatchOfDoesNotAliasInput(t *testing.T) {
	tweets := []Tweet{validTweet(), validTweet()}
	b := BatchOf(tweets)
	b.ID[0] = 42
	if tweets[0].ID == 42 {
		t.Error("BatchOf aliased the input slice")
	}
	if got := b.Rows(); len(got) != 2 || got[1] != tweets[1] {
		t.Errorf("Rows: %+v", got)
	}
}
