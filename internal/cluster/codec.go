package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/live"
	"geomob/internal/mobility"
)

// The shard partial wire codec: a versioned little-endian binary format
// whose floats are raw IEEE-754 bit patterns, so a decoded partial is
// bit-for-bit the encoded one by construction — the property the §8
// exactness argument needs from the transport (JSON would survive a
// round-trip only by the grace of shortest-representation parsing, and
// not at all for NaN or infinities).
//
// Layout (all integers little-endian, floats as Float64bits):
//
//	u32 magic "GMCP" | u16 version | u8 flags(seen,users,metro)
//	i64 tweets | f64×4 bbox(minLat,minLon,maxLat,maxLon) | i64 first,last
//	u16 nscales | per scale: u8 scale id
//	per scale: u8 hasCounts [u32 len, f64×len]
//	per scale: u8 hasFlows  [u32 n, f64×n×n flows row-major, f64×n stays]
//	if metro:  u32 len, f64×len
//	if users:  u32 count | per user, 40 bytes, ids strictly ascending:
//	           i64 id, i64 tweets, i64 cells, i64 waitMs, f64 gyrationKM
//	u8 ntiers | per tier: i64 factor, u32 groups, u32 buckets
//	u32 buckets | u32 full | u32 residual | i64 residualRecords
//
// Flow matrices travel as bare numbers; the decoder re-attaches the area
// lists from its own embedded gazetteer (every node bakes in the same
// one), keeping user-count-independent metadata off the wire.
//
// The trailing section is the fold-coverage accounting EXPLAIN ANALYZE
// surfaces per shard. partialVersion is the only version encoded or
// decoded.
const (
	partialMagic   uint32 = 0x50434d47 // "GMCP" little-endian
	partialVersion uint16 = 3

	// userWireBytes is what a user row costs on the wire, and
	// lenPrefixBytes the least a nested partial does; claimed counts are
	// bounded by the bytes actually left so a hostile prefix cannot size
	// an allocation.
	userWireBytes  = 5 * 8
	lenPrefixBytes = 4

	flagSeen  byte = 1 << 0
	flagUsers byte = 1 << 1
	flagMetro byte = 1 << 2
)

// encodePartial renders p in the wire format.
func encodePartial(p *live.ShardPartial) []byte {
	var w wireWriter
	w.u32(partialMagic)
	w.u16(partialVersion)
	flags := byte(0)
	if p.Seen {
		flags |= flagSeen
	}
	if p.Users != nil {
		flags |= flagUsers
	}
	if p.Metro500 != nil {
		flags |= flagMetro
	}
	w.u8(flags)
	w.i64(p.Tweets)
	w.f64(p.BBox.MinLat)
	w.f64(p.BBox.MinLon)
	w.f64(p.BBox.MaxLat)
	w.f64(p.BBox.MaxLon)
	w.i64(p.FirstTS)
	w.i64(p.LastTS)
	w.u16(uint16(len(p.Scales)))
	for _, sc := range p.Scales {
		w.u8(byte(sc))
	}
	for _, sc := range p.Scales {
		c, ok := p.Counts[sc]
		w.bool(ok)
		if ok {
			w.f64s(c)
		}
	}
	for _, sc := range p.Scales {
		fm := p.Flows[sc]
		w.bool(fm != nil)
		if fm != nil {
			w.u32(uint32(len(fm.Flows)))
			for _, row := range fm.Flows {
				for _, v := range row {
					w.f64(v)
				}
			}
			for _, v := range fm.Stays {
				w.f64(v)
			}
		}
	}
	if p.Metro500 != nil {
		w.f64s(p.Metro500)
	}
	if p.Users != nil {
		w.u32(uint32(len(p.Users)))
		for i := range p.Users {
			u := &p.Users[i]
			w.i64(u.ID)
			w.i64(u.Tweets)
			w.i64(u.DistinctCells)
			w.i64(u.WaitMs)
			w.f64(u.GyrationKM)
		}
	}
	w.u8(byte(len(p.Coverage.TierFolds)))
	for _, tf := range p.Coverage.TierFolds {
		w.i64(tf.Factor)
		w.u32(uint32(tf.Groups))
		w.u32(uint32(tf.Buckets))
	}
	w.u32(uint32(p.Coverage.Buckets))
	w.u32(uint32(p.Coverage.FullBuckets))
	w.u32(uint32(p.Coverage.ResidualBuckets))
	w.i64(p.Coverage.ResidualRecords)
	return w.buf
}

// decodePartial parses the wire format back into a ShardPartial,
// re-attaching area metadata from the embedded gazetteer.
func decodePartial(data []byte) (*live.ShardPartial, error) {
	r := wireReader{buf: data}
	if m := r.u32(); m != partialMagic && r.err == nil {
		return nil, fmt.Errorf("cluster: partial codec: bad magic %#x", m)
	}
	if ver := r.u16(); ver != partialVersion && r.err == nil {
		return nil, fmt.Errorf("cluster: partial codec: unsupported version %d", ver)
	}
	flags := r.u8()
	p := &live.ShardPartial{}
	p.Seen = flags&flagSeen != 0
	p.Tweets = r.i64()
	p.BBox = geo.BBox{MinLat: r.f64(), MinLon: r.f64(), MaxLat: r.f64(), MaxLon: r.f64()}
	p.FirstTS = r.i64()
	p.LastTS = r.i64()
	nscales := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	if nscales > 16 {
		return nil, fmt.Errorf("cluster: partial codec: implausible scale count %d", nscales)
	}
	gaz := census.Australia()
	if nscales > 0 { // keep nil for scale-free plans so round-trips are exact
		p.Scales = make([]census.Scale, nscales)
	}
	for i := range p.Scales {
		p.Scales[i] = census.Scale(r.u8())
	}
	for _, sc := range p.Scales {
		if r.bool() {
			if p.Counts == nil {
				p.Counts = map[census.Scale][]float64{}
			}
			p.Counts[sc] = r.f64s()
		}
	}
	for _, sc := range p.Scales {
		if !r.bool() {
			continue
		}
		n := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		rs, err := gaz.Regions(sc)
		if err != nil {
			return nil, fmt.Errorf("cluster: partial codec: regions for %s: %w", sc, err)
		}
		if n != len(rs.Areas) {
			return nil, fmt.Errorf("cluster: partial codec: %s flow matrix over %d areas, gazetteer has %d",
				sc, n, len(rs.Areas))
		}
		if (n*n+n)*8 > len(r.buf)-r.off {
			return nil, fmt.Errorf("cluster: partial codec: %s flow matrix exceeds remaining %d bytes", sc, len(r.buf)-r.off)
		}
		fm := mobility.NewFlowMatrix(rs.Areas)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				fm.Flows[i][j] = r.f64()
			}
		}
		for i := 0; i < n; i++ {
			fm.Stays[i] = r.f64()
		}
		if p.Flows == nil {
			p.Flows = map[census.Scale]*mobility.FlowMatrix{}
		}
		p.Flows[sc] = fm
	}
	if flags&flagMetro != 0 {
		p.Metro500 = r.f64s()
	}
	if flags&flagUsers != 0 {
		n := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if n > (len(r.buf)-r.off)/userWireBytes {
			return nil, fmt.Errorf("cluster: partial codec: user count %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		}
		p.Users = make([]live.UserTrajectory, n)
		for i := range p.Users {
			u := &p.Users[i]
			*u = live.UserTrajectory{ID: r.i64(), Tweets: r.i64(), DistinctCells: r.i64(), WaitMs: r.i64(), GyrationKM: r.f64()}
			if r.err != nil {
				return nil, r.err
			}
			// The coordinator interleaves shards by ascending id and detects
			// a user on two shards by equal heads, so order is part of the
			// format; the rest are values no fold can produce.
			switch {
			case i > 0 && u.ID <= p.Users[i-1].ID:
				return nil, fmt.Errorf("cluster: partial codec: user row %d: id %d after id %d, want strictly ascending", i, u.ID, p.Users[i-1].ID)
			case u.Tweets < 1:
				return nil, fmt.Errorf("cluster: partial codec: user row %d (id %d): %d tweets", i, u.ID, u.Tweets)
			case u.DistinctCells < 1 || u.DistinctCells > u.Tweets:
				return nil, fmt.Errorf("cluster: partial codec: user row %d (id %d): %d distinct cells for %d tweets", i, u.ID, u.DistinctCells, u.Tweets)
			case u.WaitMs < 0:
				return nil, fmt.Errorf("cluster: partial codec: user row %d (id %d): waiting time %d ms", i, u.ID, u.WaitMs)
			case !(u.GyrationKM >= 0 && u.GyrationKM <= geo.EarthRadius/1000):
				return nil, fmt.Errorf("cluster: partial codec: user row %d (id %d): radius of gyration %v km", i, u.ID, u.GyrationKM)
			}
		}
	}
	ntiers := int(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	if ntiers > 8 {
		return nil, fmt.Errorf("cluster: partial codec: implausible tier count %d", ntiers)
	}
	for i := 0; i < ntiers; i++ {
		p.Coverage.TierFolds = append(p.Coverage.TierFolds, live.TierFold{
			Factor:  r.i64(),
			Groups:  int(r.u32()),
			Buckets: int(r.u32()),
		})
	}
	p.Coverage.Buckets = int(r.u32())
	p.Coverage.FullBuckets = int(r.u32())
	p.Coverage.ResidualBuckets = int(r.u32())
	p.Coverage.ResidualRecords = r.i64()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("cluster: partial codec: %d trailing bytes", len(r.buf)-r.off)
	}
	return p, nil
}

// EncodePartials renders a slot-ordered partial list: u32 count, then
// each partial length-prefixed (u32) in the single-partial format. The
// nesting keeps the exactness property — every float still travels as
// its raw bit pattern.
func EncodePartials(ps []*live.ShardPartial) []byte {
	var w wireWriter
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		enc := encodePartial(p)
		w.u32(uint32(len(enc)))
		w.buf = append(w.buf, enc...)
	}
	return w.buf
}

// DecodePartials parses an EncodePartials payload.
func DecodePartials(data []byte) ([]*live.ShardPartial, error) {
	r := wireReader{buf: data}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n > (len(r.buf)-r.off)/lenPrefixBytes {
		return nil, fmt.Errorf("cluster: partial codec: partial count %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
	}
	out := make([]*live.ShardPartial, 0, n)
	for i := 0; i < n; i++ {
		ln := int(r.u32())
		blob := r.take(ln)
		if r.err != nil {
			return nil, r.err
		}
		p, err := decodePartial(blob)
		if err != nil {
			return nil, fmt.Errorf("cluster: partial %d of %d: %w", i, n, err)
		}
		out = append(out, p)
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("cluster: partial codec: %d trailing bytes", len(r.buf)-r.off)
	}
	return out, nil
}

// wireWriter appends fixed-width little-endian fields to a buffer.
type wireWriter struct{ buf []byte }

func (w *wireWriter) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *wireWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) i64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *wireWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *wireWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// f64s writes a length-prefixed float slice. Nil and empty encode
// identically (length 0) and decode to nil.
func (w *wireWriter) f64s(vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

// wireReader consumes the writer's format, latching the first error.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("cluster: partial codec: truncated at byte %d (need %d more)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *wireReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) f64s() []float64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n*8 > len(r.buf)-r.off {
		r.err = fmt.Errorf("cluster: partial codec: float slice of %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.f64()
	}
	return vs
}
