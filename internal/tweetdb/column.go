package tweetdb

// The columnar segment payload (DESIGN.md §9): a struct-of-arrays
// layout. Each segment stores five columns behind a fixed directory of
// (length, CRC-32) pairs:
// id, user and ts as zig-zag varint deltas down the column, lat and lon as
// fixed-width little-endian int32 microdegrees. The delta columns decode
// with no per-record branching on field order, and the packed coordinate
// columns are readable in place — a ColumnBlock aliases them straight out
// of the segment file bytes, so a full-segment scan hands batches of
// column data to consumers without materialising tweet.Tweet values.
//
// Coordinates are quantised by tweet.Microdegrees.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"geomob/internal/geo"
	"geomob/internal/tweet"
)

// v2 column directory: five (u32 length, u32 crc) entries, in column
// order id, user, ts, lat, lon, followed by the column bytes back to
// back.
const (
	colID = iota
	colUser
	colTS
	colLat
	colLon
	numCols
)

const colDirSize = numCols * 8

var colNames = [numCols]string{"id", "user", "ts", "lat", "lon"}

// ColumnBlock is the zero-copy read view of one segment: decoded integer
// columns plus coordinate columns aliasing the raw segment payload
// (microdegree int32, little-endian). Iterators and live.Backfill consume
// blocks wholesale instead of materialising records one at a time.
type ColumnBlock struct {
	ID     []int64
	UserID []int64
	TS     []int64
	// latRaw/lonRaw alias the segment payload (4 bytes per record,
	// little-endian int32 microdegrees); Lat/Lon decode on access.
	latRaw []byte
	lonRaw []byte
}

// Len returns the number of records in the block.
func (c *ColumnBlock) Len() int { return len(c.ID) }

// latMicro returns record i's latitude in microdegrees.
func (c *ColumnBlock) latMicro(i int) int32 {
	return int32(binary.LittleEndian.Uint32(c.latRaw[4*i:]))
}

// lonMicro returns record i's longitude in microdegrees.
func (c *ColumnBlock) lonMicro(i int) int32 {
	return int32(binary.LittleEndian.Uint32(c.lonRaw[4*i:]))
}

// Lat returns record i's latitude in degrees.
func (c *ColumnBlock) Lat(i int) float64 { return tweet.DegreesFromMicro(c.latMicro(i)) }

// Lon returns record i's longitude in degrees.
func (c *ColumnBlock) Lon(i int) float64 { return tweet.DegreesFromMicro(c.lonMicro(i)) }

// Point returns record i's coordinate.
func (c *ColumnBlock) Point(i int) geo.Point { return geo.Point{Lat: c.Lat(i), Lon: c.Lon(i)} }

// Row materialises record i as a Tweet value.
func (c *ColumnBlock) Row(i int) tweet.Tweet {
	return tweet.Tweet{ID: c.ID[i], UserID: c.UserID[i], TS: c.TS[i], Lat: c.Lat(i), Lon: c.Lon(i)}
}

// AppendTo appends records [from, to) to the batch column-wise.
func (c *ColumnBlock) AppendTo(b *tweet.Batch, from, to int) {
	b.Grow(to - from)
	b.ID = append(b.ID, c.ID[from:to]...)
	b.UserID = append(b.UserID, c.UserID[from:to]...)
	b.TS = append(b.TS, c.TS[from:to]...)
	for i := from; i < to; i++ {
		b.Lat = append(b.Lat, c.Lat(i))
		b.Lon = append(b.Lon, c.Lon(i))
	}
}

// appendRow copies record i of src onto the end of a materialised block —
// the filtered-scan path, where a block is rebuilt from matching rows.
func (c *ColumnBlock) appendRow(src *ColumnBlock, i int) {
	c.ID = append(c.ID, src.ID[i])
	c.UserID = append(c.UserID, src.UserID[i])
	c.TS = append(c.TS, src.TS[i])
	var raw [4]byte
	binary.LittleEndian.PutUint32(raw[:], uint32(src.latMicro(i)))
	c.latRaw = append(c.latRaw, raw[:]...)
	binary.LittleEndian.PutUint32(raw[:], uint32(src.lonMicro(i)))
	c.lonRaw = append(c.lonRaw, raw[:]...)
}

// encodeColumnsV2 serialises records [from, to) of the batch as a v2
// payload appended to dst: the column directory, then each column. dst
// is grown once, to the payload's worst case (three columns of 10-byte
// varints, two of 4-byte coordinates), and written by offset.
func encodeColumnsV2(dst []byte, b *tweet.Batch, from, to int) []byte {
	n := to - from
	le := binary.LittleEndian
	dirOff := len(dst)
	dst = slices.Grow(dst, colDirSize+(3*binary.MaxVarintLen64+2*4)*n)
	dst = dst[:cap(dst)]
	p := dirOff + colDirSize
	putDir := func(col, length int, crc uint32) {
		le.PutUint32(dst[dirOff+8*col:], uint32(length))
		le.PutUint32(dst[dirOff+8*col+4:], crc)
	}
	deltaCol := func(col int, vals []int64) {
		start := p
		prev := int64(0)
		for _, v := range vals {
			p += binary.PutVarint(dst[p:], v-prev)
			prev = v
		}
		putDir(col, p-start, checksum(dst[start:p]))
	}
	deltaCol(colID, b.ID[from:to])
	deltaCol(colUser, b.UserID[from:to])
	deltaCol(colTS, b.TS[from:to])
	microCol := func(col int, vals []float64) {
		body := dst[p : p+4*n]
		for i, v := range vals {
			le.PutUint32(body[4*i:], uint32(tweet.Microdegrees(v)))
		}
		putDir(col, 4*n, checksum(body))
		p += 4 * n
	}
	microCol(colLat, b.Lat[from:to])
	microCol(colLon, b.Lon[from:to])
	return dst[:p]
}

// decodeColumnsV2 parses a v2 payload of n records into a block. The
// coordinate columns alias payload; the caller must keep it alive (and
// immutable) for the block's lifetime. Every structural defect — bad
// directory, short columns, CRC mismatch — is a clean error, never a
// panic.
func decodeColumnsV2(payload []byte, n int) (*ColumnBlock, error) {
	if len(payload) < colDirSize {
		return nil, fmt.Errorf("column directory truncated: %d bytes", len(payload))
	}
	le := binary.LittleEndian
	var cols [numCols][]byte
	off := colDirSize
	for c := 0; c < numCols; c++ {
		length := int(le.Uint32(payload[8*c:]))
		crc := le.Uint32(payload[8*c+4:])
		if length < 0 || off+length > len(payload) {
			return nil, fmt.Errorf("column %s: length %d overruns payload (%d of %d bytes used)",
				colNames[c], length, off, len(payload))
		}
		body := payload[off : off+length]
		if got := checksum(body); got != crc {
			return nil, fmt.Errorf("column %s: checksum mismatch (stored %08x, computed %08x)",
				colNames[c], crc, got)
		}
		cols[c] = body
		off += length
	}
	if off != len(payload) {
		return nil, fmt.Errorf("payload has %d trailing bytes after columns", len(payload)-off)
	}
	blk := &ColumnBlock{}
	deltaCol := func(c int) ([]int64, error) {
		buf := cols[c]
		// A varint takes at least one byte: a count the column cannot hold
		// is rejected before it sizes an allocation.
		if n > len(buf) {
			return nil, fmt.Errorf("column %s: %d bytes cannot hold %d records", colNames[c], len(buf), n)
		}
		out := make([]int64, 0, n)
		pos := 0
		prev := int64(0)
		for i := 0; i < n; i++ {
			v, k := binary.Varint(buf[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("column %s: truncated varint at offset %d (record %d of %d)",
					colNames[c], pos, i, n)
			}
			pos += k
			prev += v
			out = append(out, prev)
		}
		if pos != len(buf) {
			return nil, fmt.Errorf("column %s: %d trailing bytes after %d records", colNames[c], len(buf)-pos, n)
		}
		return out, nil
	}
	var err error
	if blk.ID, err = deltaCol(colID); err != nil {
		return nil, err
	}
	if blk.UserID, err = deltaCol(colUser); err != nil {
		return nil, err
	}
	if blk.TS, err = deltaCol(colTS); err != nil {
		return nil, err
	}
	for _, c := range []int{colLat, colLon} {
		if len(cols[c]) != 4*n {
			return nil, fmt.Errorf("column %s: %d bytes for %d records, want %d",
				colNames[c], len(cols[c]), n, 4*n)
		}
	}
	blk.latRaw = cols[colLat]
	blk.lonRaw = cols[colLon]
	return blk, nil
}
