// Package tweetdb is an embedded, append-only storage engine for geo-tagged
// tweets, built for the scan-heavy analytical workloads of the paper:
// write-once segments hold delta-encoded record blocks with CRC-32
// integrity, an append-only catalogue log tracks per-segment metadata
// (time range, bounding box, user-id range), and queries push
// time/space/user predicates down to segment pruning before any byte of
// payload is read.
//
// The design follows the classic log-structured table layout: immutable
// segment files, a catalogue log whose records are the single source of
// truth — one record commits one append — and an offline compaction that
// merges segments into global (user, time) order, the order mobility
// extraction consumes.
package tweetdb

import (
	"fmt"
	"hash/crc32"

	"geomob/internal/geo"
	"geomob/internal/wire"
)

// File format constants. A segment is the magic, a fixed header and the
// columnar payload of column.go; segVersion is the only version written
// or read (version 1, a row-wise varint stream, is rejected like any
// other unknown version).
const (
	segMagic   = "GMSEG1\x00\x00" // 8 bytes
	segVersion = 2
	headerSize = 8 + 2 + 2 + 4 + 8*4 + 8*4 + 4 + 4 // magic, ver, flags, count, ts/user ranges, bbox, payload len, crc
)

// SegmentMeta describes one immutable segment file. All ranges are
// inclusive.
type SegmentMeta struct {
	File    string // file name relative to the store directory
	Count   int    // number of records
	MinTS   int64  // earliest tweet timestamp (ms)
	MaxTS   int64  // latest tweet timestamp (ms)
	MinUser int64  // smallest user id
	MaxUser int64  // largest user id
	MinLat  float64
	MinLon  float64
	MaxLat  float64
	MaxLon  float64
	Bytes   int64 // file size, header included
	seq     int   // the sequence number File carries
}

// BBox returns the segment's spatial bounds.
func (m SegmentMeta) BBox() geo.BBox {
	return geo.BBox{MinLat: m.MinLat, MinLon: m.MinLon, MaxLat: m.MaxLat, MaxLon: m.MaxLon}
}

// header is the fixed-size binary prefix of a segment file.
type header struct {
	version    uint16
	count      uint32
	minTS      int64
	maxTS      int64
	minUser    int64
	maxUser    int64
	bbox       geo.BBox
	payloadLen uint32
	crc        uint32
}

// putHeader encodes the header over buf[:headerSize].
func putHeader(buf []byte, h header) {
	w := wire.NewWriter(buf[:0]) // appends within buf, over its header bytes
	w.Raw([]byte(segMagic))
	w.U16(h.version)
	w.Zero(2) // reserved flags
	w.U32(h.count)
	w.I64(h.minTS)
	w.I64(h.maxTS)
	w.I64(h.minUser)
	w.I64(h.maxUser)
	w.F64(h.bbox.MinLat)
	w.F64(h.bbox.MinLon)
	w.F64(h.bbox.MaxLat)
	w.F64(h.bbox.MaxLon)
	w.U32(h.payloadLen)
	w.U32(h.crc)
}

// unmarshalHeader decodes and validates the fixed-size header.
func unmarshalHeader(buf []byte) (header, error) {
	r := wire.NewReader(buf)
	magic := r.Take(8)
	h := header{version: r.U16()}
	r.Zero(2) // reserved flags
	h.count = r.U32()
	h.minTS, h.maxTS = r.I64(), r.I64()
	h.minUser, h.maxUser = r.I64(), r.I64()
	h.bbox = geo.BBox{MinLat: r.F64(), MinLon: r.F64(), MaxLat: r.F64(), MaxLon: r.F64()}
	h.payloadLen, h.crc = r.U32(), r.U32()
	switch {
	case magic != nil && string(magic) != segMagic:
		return h, fmt.Errorf("tweetdb: bad segment magic %q", magic)
	case r.Err() != nil:
		return h, fmt.Errorf("tweetdb: segment header: %w", r.Err())
	case h.version != segVersion:
		return h, fmt.Errorf("tweetdb: unsupported segment version %d", h.version)
	}
	return h, nil
}

// checksum is the payload CRC used throughout the store (CRC-32, IEEE).
func checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }
