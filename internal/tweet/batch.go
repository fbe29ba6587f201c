package tweet

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"

	"geomob/internal/geo"
	"geomob/internal/wire"
)

// Batch is the struct-of-arrays form of a tweet slice: one column per
// field, all of equal length. It is the unit of the batched ingest path —
// the wire frame codec below, tweetdb's columnar v2 segments and the live
// aggregator's batch resolvers all consume columns directly, so a record
// never has to materialise as a Tweet value on its way through the hot
// path.
type Batch struct {
	ID     []int64
	UserID []int64
	TS     []int64
	Lat    []float64
	Lon    []float64
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.ID) }

// Reset empties the batch, keeping column capacity for reuse.
func (b *Batch) Reset() {
	b.ID = b.ID[:0]
	b.UserID = b.UserID[:0]
	b.TS = b.TS[:0]
	b.Lat = b.Lat[:0]
	b.Lon = b.Lon[:0]
}

// Grow ensures capacity for n additional records without reallocating.
func (b *Batch) Grow(n int) {
	if need := len(b.ID) + n; need > cap(b.ID) {
		b.ID = append(make([]int64, 0, need), b.ID...)
		b.UserID = append(make([]int64, 0, need), b.UserID...)
		b.TS = append(make([]int64, 0, need), b.TS...)
		b.Lat = append(make([]float64, 0, need), b.Lat...)
		b.Lon = append(make([]float64, 0, need), b.Lon...)
	}
}

// Append adds one record to the batch.
func (b *Batch) Append(t Tweet) {
	b.ID = append(b.ID, t.ID)
	b.UserID = append(b.UserID, t.UserID)
	b.TS = append(b.TS, t.TS)
	b.Lat = append(b.Lat, t.Lat)
	b.Lon = append(b.Lon, t.Lon)
}

// AppendBatch appends every record of o.
func (b *Batch) AppendBatch(o *Batch) {
	b.ID = append(b.ID, o.ID...)
	b.UserID = append(b.UserID, o.UserID...)
	b.TS = append(b.TS, o.TS...)
	b.Lat = append(b.Lat, o.Lat...)
	b.Lon = append(b.Lon, o.Lon...)
}

// Row materialises record i as a Tweet value.
func (b *Batch) Row(i int) Tweet {
	return Tweet{ID: b.ID[i], UserID: b.UserID[i], TS: b.TS[i], Lat: b.Lat[i], Lon: b.Lon[i]}
}

// Rows materialises the whole batch as a fresh Tweet slice.
func (b *Batch) Rows() []Tweet {
	out := make([]Tweet, b.Len())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// Slice returns a view of records [i, j): the columns alias b, no copy.
func (b *Batch) Slice(i, j int) *Batch {
	return &Batch{
		ID:     b.ID[i:j],
		UserID: b.UserID[i:j],
		TS:     b.TS[i:j],
		Lat:    b.Lat[i:j],
		Lon:    b.Lon[i:j],
	}
}

// BatchOf converts a tweet slice into a fresh batch.
func BatchOf(tweets []Tweet) *Batch {
	b := &Batch{}
	b.Grow(len(tweets))
	for _, t := range tweets {
		b.Append(t)
	}
	return b
}

// Validate reports the first invalid record, column-wise — the batched
// twin of Tweet.Validate, checked once per record for the whole ingest
// path.
func (b *Batch) Validate() error {
	n := b.Len()
	if len(b.UserID) != n || len(b.TS) != n || len(b.Lat) != n || len(b.Lon) != n {
		return fmt.Errorf("batch: ragged columns: id=%d user=%d ts=%d lat=%d lon=%d",
			n, len(b.UserID), len(b.TS), len(b.Lat), len(b.Lon))
	}
	for i := 0; i < n; i++ {
		if b.ID[i] < 0 {
			return fmt.Errorf("batch record %d: negative id %d", i, b.ID[i])
		}
		if b.UserID[i] < 0 {
			return fmt.Errorf("batch record %d: negative user id %d", i, b.UserID[i])
		}
		if !(geo.Point{Lat: b.Lat[i], Lon: b.Lon[i]}).Valid() {
			return fmt.Errorf("batch record %d: invalid coordinates (%v, %v)", i, b.Lat[i], b.Lon[i])
		}
	}
	return nil
}

// IsSorted reports whether the batch is in canonical (user, time, id)
// order — an O(n) scan that lets already-ordered feeds skip the sort
// entirely.
func (b *Batch) IsSorted() bool {
	for i := 1; i < b.Len(); i++ {
		if u, p := b.UserID[i], b.UserID[i-1]; u != p {
			if u < p {
				return false
			}
		} else if t, p := b.TS[i], b.TS[i-1]; t < p || t == p && b.ID[i] < b.ID[i-1] {
			return false
		}
	}
	return true
}

// sortKey is a record's user id, sign bit flipped so it orders unsigned,
// and its input position.
type sortKey struct {
	user uint64
	at   int
}

// sortKeys pools SortInto's two key arrays, overwritten before being read.
var sortKeys = sync.Pool{New: func() any { return new([2][]sortKey) }}

// SortInto replaces dst's contents with b's records in canonical (user,
// time, id) order, equal keys in input order, and leaves b untouched. It
// sorts a permutation, not the columns: a stable byte-wise radix sort on
// the user id, skipping the bytes all users share, groups each user's
// records in input order; feeds arrive in time order, so most groups are
// then in (time, id) order already and the rest are sorted one by one;
// one gather writes the columns. dst must not alias b.
func (b *Batch) SortInto(dst *Batch) {
	n := b.Len()
	kp := sortKeys.Get().(*[2][]sortKey)
	defer sortKeys.Put(kp)
	kp[0], kp[1] = slices.Grow(kp[0][:0], n), slices.Grow(kp[1][:0], n)
	keys, tmp := kp[0][:n], kp[1][:n]
	or, and := uint64(0), ^uint64(0)
	for i, u := range b.UserID {
		keys[i] = sortKey{uint64(u) ^ 1<<63, i}
		or, and = or|keys[i].user, and&keys[i].user
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, k := range keys {
			next[k.user>>shift&0xff]++
		}
		at := 0
		for d, c := range next {
			next[d], at = at, at+c
		}
		for _, k := range keys {
			d := k.user >> shift & 0xff
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	byTime := func(x, y sortKey) int {
		if c := cmp.Compare(b.TS[x.at], b.TS[y.at]); c != 0 {
			return c
		}
		return cmp.Compare(b.ID[x.at], b.ID[y.at])
	}
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi = lo + 1; hi < n && keys[hi].user == keys[lo].user; hi++ {
		}
		if !slices.IsSortedFunc(keys[lo:hi], byTime) {
			slices.SortStableFunc(keys[lo:hi], byTime)
		}
	}
	dst.Reset()
	dst.Grow(n)
	for _, k := range keys {
		dst.Append(b.Row(k.at))
	}
}

// Sort establishes canonical (user, time, id) order in place, equal keys
// keeping their input order. Already-sorted batches return after the O(n)
// check.
func (b *Batch) Sort() {
	if b.IsSorted() {
		return
	}
	var tmp Batch
	b.SortInto(&tmp)
	b.Reset()
	b.AppendBatch(&tmp) // back into the same arrays
}

// coordScale converts degrees to microdegrees.
const coordScale = 1e6

// Microdegrees quantises a coordinate in degrees to microdegrees (1e-6°,
// ~0.11 m, far below GPS noise), rounding half away from zero — the
// quantisation of the columnar segment format. Valid coordinates fit
// int32 (±180e6).
func Microdegrees(deg float64) int32 { return int32(int64(math.Round(deg * coordScale))) }

// DegreesFromMicro is the inverse of Microdegrees (float64(micro) / 1e6).
func DegreesFromMicro(m int32) float64 { return float64(m) / coordScale }

// Binary batch frame format. Every frame is one Batch, length-prefixed so
// frames stream back to back over one connection. Following the cluster
// wire codec conventions: little-endian fixed-width integers, magic + u16
// version, coordinates as raw IEEE-754 bits so a binary round-trip is
// bit-exact (unlike the storage codec, the wire does not quantise).
//
//	u32 frameLen            length of everything after this field
//	u32 magic "GMTB"        0x42544d47 little-endian
//	u16 version (1)
//	u16 reserved (0)
//	u32 count               records in the frame
//	5 × column:             id, user, ts (i64), lat, lon (f64 bits)
//	  u32 colLen            column byte length (8 × count)
//	  u32 colCRC            CRC-32 (IEEE) of the column bytes
//	  bytes
const (
	batchMagic   uint32 = 0x42544d47 // "GMTB" little-endian
	batchVersion uint16 = 1
	// batchFixedLen is the frame byte length after the length prefix,
	// excluding the column bytes: magic, version, reserved, count, and
	// five (len, crc) column headers.
	batchFixedLen = 4 + 2 + 2 + 4 + 5*8
)

// BatchContentType is the media type of a binary batch frame stream, the
// content-negotiation key of POST /v1/ingest.
const BatchContentType = "application/x-geomob-batch"

// defaultMaxFrameBytes bounds a single decoded frame when the reader is
// given no explicit limit — matching the services' default request-body
// bound, so a corrupt or hostile length prefix cannot trigger an
// unbounded allocation.
const defaultMaxFrameBytes int64 = 64 << 20

// ErrFrameTooLarge marks a frame whose length prefix exceeds the reader's
// limit. Service layers map it to 413, like the other size bounds.
var ErrFrameTooLarge = errors.New("tweet: batch frame exceeds size limit")

// maxBatchLen is the largest record count a single frame may carry
// (bounded so count × 40 bytes stays within any sane frame limit).
const maxBatchLen = 1 << 26

// AppendFrame encodes b as one binary frame appended to dst.
func AppendFrame(dst []byte, b *Batch) ([]byte, error) {
	n := b.Len()
	if n > maxBatchLen {
		return dst, fmt.Errorf("tweet: batch of %d records exceeds the %d frame cap", n, maxBatchLen)
	}
	frameLen := batchFixedLen + 5*8*n
	w := wire.NewWriter(dst)
	w.Grow(4 + frameLen)
	w.U32(uint32(frameLen))
	w.U32(batchMagic)
	w.U16(batchVersion)
	w.Zero(2)
	w.U32(uint32(n))
	for _, col := range [][]int64{b.ID, b.UserID, b.TS} {
		at := w.BeginSection()
		for _, v := range col {
			w.I64(v)
		}
		w.EndSection(at)
	}
	for _, col := range [][]float64{b.Lat, b.Lon} {
		at := w.BeginSection()
		for _, v := range col {
			w.F64(v)
		}
		w.EndSection(at)
	}
	return w.Bytes(), nil
}

// FrameRows peeks the record count out of an encoded frame (length
// prefix included) without decoding it; 0 if the frame is too short.
func FrameRows(frame []byte) int {
	r := wire.NewReader(frame)
	r.Take(12)
	return int(r.U32())
}

// decodeFrame decodes one frame body (everything after the length prefix)
// into b, replacing its contents. Structural errors (magic, version,
// reserved bytes, lengths, CRC) are reported without panicking on any
// input.
func decodeFrame(buf []byte, b *Batch) error {
	r := wire.NewReader(buf)
	magic, version := r.U32(), r.U16()
	r.Zero(2)
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("tweet: batch frame header: %w", err)
	}
	if magic != batchMagic {
		return fmt.Errorf("tweet: bad batch frame magic %08x", magic)
	}
	if version != batchVersion {
		return fmt.Errorf("tweet: unsupported batch frame version %d", version)
	}
	if n > maxBatchLen {
		return fmt.Errorf("tweet: batch frame count %d exceeds the %d cap", n, maxBatchLen)
	}
	if want := batchFixedLen + 5*8*n; len(buf) != want {
		return fmt.Errorf("tweet: batch frame of %d records has %d bytes, want %d", n, len(buf), want)
	}
	var cols [5][]byte
	for c, name := range [...]string{"id", "user", "ts", "lat", "lon"} {
		if cols[c] = r.Section(); r.Err() != nil {
			return fmt.Errorf("tweet: batch frame column %s: %w", name, r.Err())
		}
		if len(cols[c]) != 8*n {
			return fmt.Errorf("tweet: batch frame column %s: length %d, want %d", name, len(cols[c]), 8*n)
		}
	}
	// Every column is 8n bytes now, so the bodies decode in direct loops.
	b.Reset()
	b.Grow(n)
	b.ID, b.UserID, b.TS, b.Lat, b.Lon = b.ID[:n], b.UserID[:n], b.TS[:n], b.Lat[:n], b.Lon[:n]
	for i := range n {
		b.ID[i] = int64(wire.U64(cols[0][8*i:]))
		b.UserID[i] = int64(wire.U64(cols[1][8*i:]))
		b.TS[i] = int64(wire.U64(cols[2][8*i:]))
		b.Lat[i] = math.Float64frombits(wire.U64(cols[3][8*i:]))
		b.Lon[i] = math.Float64frombits(wire.U64(cols[4][8*i:]))
	}
	return nil
}

// BatchWriter streams batches as binary frames onto w.
type BatchWriter struct {
	w   io.Writer
	buf []byte
	n   int64
}

// NewBatchWriter wraps w.
func NewBatchWriter(w io.Writer) *BatchWriter { return &BatchWriter{w: w} }

// Write encodes b as one frame and writes it out.
func (w *BatchWriter) Write(b *Batch) error {
	buf, err := AppendFrame(w.buf[:0], b)
	if err != nil {
		return err
	}
	w.buf = buf
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.n += int64(b.Len())
	return nil
}

// Total returns the number of records written.
func (w *BatchWriter) Total() int64 { return w.n }

// BatchReader streams binary frames off r.
type BatchReader struct {
	r        io.Reader
	maxFrame int64
	buf      []byte
	err      error
}

// NewBatchReader wraps r, bounding single frames at maxFrame bytes
// (defaultMaxFrameBytes when maxFrame <= 0).
func NewBatchReader(r io.Reader, maxFrame int64) *BatchReader {
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrameBytes
	}
	return &BatchReader{r: r, maxFrame: maxFrame}
}

// Read decodes the next frame into b, replacing its contents. At a clean
// end of stream it returns io.EOF. A stream error from the underlying
// reader (e.g. http.MaxBytesError from a bounded request body) is
// returned as-is so transport bounds keep their status mapping; a frame
// whose length prefix exceeds the reader's limit returns
// ErrFrameTooLarge; structural corruption returns a descriptive error. No
// input makes Read panic.
func (r *BatchReader) Read(b *Batch) error {
	if r.err != nil {
		return r.err
	}
	var pfx [4]byte
	if _, err := io.ReadFull(r.r, pfx[:]); err != nil {
		if errors.Is(err, io.EOF) {
			r.err = io.EOF
			return io.EOF
		}
		r.err = r.streamErr(err, "frame length")
		return r.err
	}
	frameLen := int64(wire.U32(pfx[:]))
	if frameLen > r.maxFrame {
		r.err = fmt.Errorf("%w: frame of %d bytes, limit %d", ErrFrameTooLarge, frameLen, r.maxFrame)
		return r.err
	}
	if frameLen < batchFixedLen {
		r.err = fmt.Errorf("tweet: corrupt batch frame length %d", frameLen)
		return r.err
	}
	if int64(cap(r.buf)) < frameLen {
		r.buf = make([]byte, frameLen)
	}
	buf := r.buf[:frameLen]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = r.streamErr(err, "frame body")
		return r.err
	}
	if err := decodeFrame(buf, b); err != nil {
		r.err = err
		return err
	}
	return nil
}

// streamErr wraps an underlying read failure, preserving transport
// sentinels (http.MaxBytesError, unexpected EOF) in the chain.
func (r *BatchReader) streamErr(err error, what string) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("tweet: batch %s: %w", what, err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("tweet: truncated batch %s: %w", what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("tweet: batch %s: %w", what, err)
}
