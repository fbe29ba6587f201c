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
	"fmt"

	"geomob/internal/geo"
	"geomob/internal/tweet"
	"geomob/internal/wire"
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
	return int32(wire.U32(c.latRaw[4*i:]))
}

// lonMicro returns record i's longitude in microdegrees.
func (c *ColumnBlock) lonMicro(i int) int32 {
	return int32(wire.U32(c.lonRaw[4*i:]))
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
	c.latRaw = append(c.latRaw, src.latRaw[4*i:4*i+4]...)
	c.lonRaw = append(c.lonRaw, src.lonRaw[4*i:4*i+4]...)
}

// encodeColumnsV2 serialises records [from, to) of the batch as a v2
// payload appended to dst: the column directory, then each column. dst
// is grown once, to the payload's worst case (three columns of 10-byte
// varints, two of 4-byte coordinates), and each directory entry is
// filled in once its column is written.
func encodeColumnsV2(dst []byte, b *tweet.Batch, from, to int) []byte {
	w := wire.NewWriter(dst)
	w.Grow(colDirSize + (3*10+2*4)*(to-from))
	dir := w.Len()
	w.Zero(colDirSize)
	start := w.Len()
	endCol := func(col int) {
		w.SetU32(dir+8*col, uint32(w.Len()-start))
		w.SetU32(dir+8*col+4, checksum(w.Bytes()[start:]))
		start = w.Len()
	}
	for col, vals := range [][]int64{colID: b.ID[from:to], colUser: b.UserID[from:to], colTS: b.TS[from:to]} {
		prev := int64(0)
		for _, v := range vals {
			w.Varint(v - prev)
			prev = v
		}
		endCol(col)
	}
	for k, vals := range [][]float64{b.Lat[from:to], b.Lon[from:to]} {
		for _, v := range vals {
			w.U32(uint32(tweet.Microdegrees(v)))
		}
		endCol(colLat + k)
	}
	return w.Bytes()
}

// decodeColumnsV2 parses a v2 payload of n records into a block. The
// coordinate columns alias payload; the caller must keep it alive (and
// immutable) for the block's lifetime. Every structural defect — bad
// directory, short columns, CRC mismatch, a varint that is not the
// shortest — is a clean error, never a panic.
func decodeColumnsV2(payload []byte, n int) (*ColumnBlock, error) {
	r := wire.NewReader(payload)
	var lens, crcs [numCols]uint32
	for c := range lens {
		lens[c], crcs[c] = r.U32(), r.U32()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("column directory: %w", err)
	}
	var cols [numCols]wire.Reader
	for c := range cols {
		if cols[c] = wire.NewReader(r.Checked(int(lens[c]), crcs[c])); r.Err() != nil {
			return nil, fmt.Errorf("column %s: %w", colNames[c], r.Err())
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("payload after columns: %w", err)
	}
	blk := &ColumnBlock{}
	deltaCol := func(c int) ([]int64, error) {
		cr := &cols[c]
		// A varint takes at least one byte: a count the column cannot hold
		// is rejected before it sizes an allocation.
		out := make([]int64, cr.Count(uint64(n), 1))
		prev := int64(0)
		for i := range out {
			prev += cr.Varint()
			out[i] = prev
		}
		if err := cr.End(); err != nil {
			return nil, fmt.Errorf("column %s of %d records: %w", colNames[c], n, err)
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
		if cols[c].Len() != 4*n {
			return nil, fmt.Errorf("column %s: %d bytes for %d records, want %d",
				colNames[c], cols[c].Len(), n, 4*n)
		}
	}
	blk.latRaw = cols[colLat].Take(4 * n)
	blk.lonRaw = cols[colLon].Take(4 * n)
	return blk, nil
}
