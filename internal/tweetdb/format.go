// Package tweetdb is an embedded, append-only storage engine for geo-tagged
// tweets, built for the scan-heavy analytical workloads of the paper:
// write-once segments hold delta-encoded record blocks with CRC-32
// integrity, a JSON manifest tracks per-segment metadata (time range,
// bounding box, user-id range), and queries push time/space/user predicates
// down to segment pruning before any byte of payload is read.
//
// The design follows the classic log-structured table layout: immutable
// segment files written atomically (temp file + rename), a manifest that is
// the single source of truth, and an offline compaction that merges
// segments into global (user, time) order — the order mobility extraction
// consumes.
package tweetdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"geomob/internal/geo"
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
	File    string  `json:"file"`     // file name relative to the store directory
	Count   int     `json:"count"`    // number of records
	MinTS   int64   `json:"min_ts"`   // earliest tweet timestamp (ms)
	MaxTS   int64   `json:"max_ts"`   // latest tweet timestamp (ms)
	MinUser int64   `json:"min_user"` // smallest user id
	MaxUser int64   `json:"max_user"` // largest user id
	MinLat  float64 `json:"min_lat"`
	MinLon  float64 `json:"min_lon"`
	MaxLat  float64 `json:"max_lat"`
	MaxLon  float64 `json:"max_lon"`
	Bytes   int64   `json:"bytes"` // file size, header included
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
	copy(buf[0:8], segMagic)
	binary.LittleEndian.PutUint16(buf[8:10], h.version)
	binary.LittleEndian.PutUint16(buf[10:12], 0) // reserved flags
	binary.LittleEndian.PutUint32(buf[12:16], h.count)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.minTS))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.maxTS))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(h.minUser))
	binary.LittleEndian.PutUint64(buf[40:48], uint64(h.maxUser))
	binary.LittleEndian.PutUint64(buf[48:56], math.Float64bits(h.bbox.MinLat))
	binary.LittleEndian.PutUint64(buf[56:64], math.Float64bits(h.bbox.MinLon))
	binary.LittleEndian.PutUint64(buf[64:72], math.Float64bits(h.bbox.MaxLat))
	binary.LittleEndian.PutUint64(buf[72:80], math.Float64bits(h.bbox.MaxLon))
	binary.LittleEndian.PutUint32(buf[80:84], h.payloadLen)
	binary.LittleEndian.PutUint32(buf[84:88], h.crc)
}

// unmarshalHeader decodes and validates the fixed-size header.
func unmarshalHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < headerSize {
		return h, fmt.Errorf("tweetdb: segment header truncated: %d bytes", len(buf))
	}
	if string(buf[0:8]) != segMagic {
		return h, fmt.Errorf("tweetdb: bad segment magic %q", buf[0:8])
	}
	if h.version = binary.LittleEndian.Uint16(buf[8:10]); h.version != segVersion {
		return h, fmt.Errorf("tweetdb: unsupported segment version %d", h.version)
	}
	h.count = binary.LittleEndian.Uint32(buf[12:16])
	h.minTS = int64(binary.LittleEndian.Uint64(buf[16:24]))
	h.maxTS = int64(binary.LittleEndian.Uint64(buf[24:32]))
	h.minUser = int64(binary.LittleEndian.Uint64(buf[32:40]))
	h.maxUser = int64(binary.LittleEndian.Uint64(buf[40:48]))
	h.bbox.MinLat = math.Float64frombits(binary.LittleEndian.Uint64(buf[48:56]))
	h.bbox.MinLon = math.Float64frombits(binary.LittleEndian.Uint64(buf[56:64]))
	h.bbox.MaxLat = math.Float64frombits(binary.LittleEndian.Uint64(buf[64:72]))
	h.bbox.MaxLon = math.Float64frombits(binary.LittleEndian.Uint64(buf[72:80]))
	h.payloadLen = binary.LittleEndian.Uint32(buf[80:84])
	h.crc = binary.LittleEndian.Uint32(buf[84:88])
	return h, nil
}

// checksum is the payload CRC used throughout the store (CRC-32, IEEE).
func checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }
