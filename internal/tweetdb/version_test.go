package tweetdb

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"
	"testing/quick"

	"geomob/internal/tweet"
)

// edgeBatch builds n records mixing corridor coordinates with the exact
// domain edges (poles, antimeridian) and pre-epoch timestamps — every
// value the v2 column codec must carry without drift.
func edgeBatch(rng *rand.Rand, n int) *tweet.Batch {
	b := &tweet.Batch{}
	b.Grow(n)
	for i := 0; i < n; i++ {
		tw := tweet.Tweet{
			ID:     rng.Int64N(1 << 50),
			UserID: rng.Int64N(1 << 40),
			TS:     rng.Int64N(1<<50) - (1 << 49),
			Lat:    -90 + rng.Float64()*180,
			Lon:    -180 + rng.Float64()*360,
		}
		switch rng.IntN(8) {
		case 0:
			tw.Lat, tw.Lon = 90, 180
		case 1:
			tw.Lat, tw.Lon = -90, -180
		case 2:
			tw.Lon = 180
		case 3:
			tw.Lon = -180
		}
		b.Append(tw)
	}
	return b
}

// quantised maps a record to what any segment round trip may legally
// return: ids and timestamps exact, coordinates quantised to microdegrees.
func quantised(t tweet.Tweet) tweet.Tweet {
	t.Lat = tweet.DegreesFromMicro(tweet.Microdegrees(t.Lat))
	t.Lon = tweet.DegreesFromMicro(tweet.Microdegrees(t.Lon))
	return t
}

func TestColumnPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	for _, n := range []int{1, 2, 333, 5000} {
		b := edgeBatch(rng, n)
		payload := encodeColumnsV2(nil, b, 0, n)
		blk, err := decodeColumnsV2(payload, n)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Len() != n {
			t.Fatalf("decoded %d rows, want %d", blk.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got, want := blk.Row(i), quantised(b.Row(i)); got != want {
				t.Fatalf("n=%d row %d: %+v != %+v", n, i, got, want)
			}
			if blk.latMicro(i) != tweet.Microdegrees(b.Lat[i]) || blk.lonMicro(i) != tweet.Microdegrees(b.Lon[i]) {
				t.Fatalf("n=%d row %d: microdegree mismatch", n, i)
			}
		}
	}
	// Sub-range encodes only [from, to).
	b := edgeBatch(rng, 100)
	payload := encodeColumnsV2(nil, b, 25, 75)
	blk, err := decodeColumnsV2(payload, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if blk.Row(i) != quantised(b.Row(i+25)) {
			t.Fatalf("sub-range row %d mismatch", i)
		}
	}
}

func TestColumnPayloadProperty(t *testing.T) {
	f := func(seed uint64, nSeed uint16) bool {
		rng := rand.New(rand.NewPCG(seed, uint64(nSeed)))
		n := 1 + int(nSeed)%129
		b := edgeBatch(rng, n)
		blk, err := decodeColumnsV2(encodeColumnsV2(nil, b, 0, n), n)
		if err != nil || blk.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if blk.Row(i) != quantised(b.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestColumnPayloadCorruptionNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	b := edgeBatch(rng, 64)
	payload := encodeColumnsV2(nil, b, 0, 64)
	// Every single-byte flip either fails cleanly (directory bounds or
	// per-column CRC) or — never — decodes to different rows silently.
	for off := 0; off < len(payload); off++ {
		corrupt := append([]byte(nil), payload...)
		corrupt[off] ^= 0x5a
		blk, err := decodeColumnsV2(corrupt, 64)
		if err != nil {
			continue
		}
		for i := 0; i < 64; i++ {
			if blk.Row(i) != quantised(b.Row(i)) {
				t.Fatalf("byte %d: silent corruption", off)
			}
		}
	}
	// Truncations fail cleanly.
	for i := 0; i < 200; i++ {
		cut := rng.IntN(len(payload))
		if _, err := decodeColumnsV2(payload[:cut], 64); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A wrong record count is rejected.
	if _, err := decodeColumnsV2(payload, 63); err == nil {
		t.Error("under-claimed count accepted")
	}
	if _, err := decodeColumnsV2(payload, 65); err == nil {
		t.Error("over-claimed count accepted")
	}
}

// FuzzDecodeSegment runs the segment read path — header, payload length
// and checksum, then the column decode — over arbitrary file bytes. It
// must never panic, never allocate more than the bytes justify (a header
// may claim four billion records), and whatever it accepts must
// re-encode to rows that decode to the same records.
func FuzzDecodeSegment(f *testing.F) {
	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(91, 92))
	b := edgeBatch(rng, 64)
	b.Sort()
	if err := store.AppendBatch(b); err != nil {
		f.Fatal(err)
	}
	pristine, err := os.ReadFile(filepath.Join(store.Dir(), store.Segments()[0].File))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	// The single-byte flips and truncations of the column corruption
	// test, over the header and the payload.
	for _, p := range []int{0, 9, 13, 81, 85, headerSize, headerSize + 3, headerSize + colDirSize, len(pristine) / 2, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[p] ^= 0x5a
		f.Add(flipped)
	}
	f.Add(pristine[:headerSize])
	f.Add(pristine[:len(pristine)/2])
	claim := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(claim[12:], math.MaxUint32)
	f.Add(claim)
	// The reserved flags set: the file CRC covers the payload only, so
	// only the reserved-bytes rule refuses it.
	flags := append([]byte(nil), pristine...)
	flags[10] = 1
	if _, err := decodeSegment(flags); err == nil {
		f.Fatal("a segment with its reserved flags set was accepted")
	}
	f.Add(flags)
	f.Add([]byte{})

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := allocated()
		blk, err := decodeSegment(raw)
		// Three int64 columns of at most one record a byte; the slack
		// covers the error message and the test runtime.
		if got, limit := allocated()-before, uint64(24*len(raw)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), got)
		}
		if err != nil {
			return
		}
		var rows tweet.Batch
		blk.AppendTo(&rows, 0, blk.Len())
		again, err := decodeColumnsV2(encodeColumnsV2(nil, &rows, 0, rows.Len()), rows.Len())
		if err != nil {
			t.Fatalf("an accepted segment does not re-encode: %v", err)
		}
		for i := 0; i < blk.Len(); i++ {
			if again.Row(i) != blk.Row(i) {
				t.Fatalf("row %d: %+v re-decodes as %+v", i, blk.Row(i), again.Row(i))
			}
		}
	})
}
