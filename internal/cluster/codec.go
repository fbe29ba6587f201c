package cluster

import (
	"fmt"
	"slices"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/live"
	"geomob/internal/mobility"
	"geomob/internal/wire"
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
	var w wire.Writer
	w.U32(partialMagic)
	w.U16(partialVersion)
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
	w.U8(flags)
	w.I64(p.Tweets)
	w.F64(p.BBox.MinLat)
	w.F64(p.BBox.MinLon)
	w.F64(p.BBox.MaxLat)
	w.F64(p.BBox.MaxLon)
	w.I64(p.FirstTS)
	w.I64(p.LastTS)
	w.U16(uint16(len(p.Scales)))
	for _, sc := range p.Scales {
		w.U8(byte(sc))
	}
	for _, sc := range p.Scales {
		c, ok := p.Counts[sc]
		w.Bool(ok)
		if ok {
			putF64s(&w, c)
		}
	}
	for _, sc := range p.Scales {
		fm := p.Flows[sc]
		w.Bool(fm != nil)
		if fm != nil {
			w.U32(uint32(len(fm.Flows)))
			for _, row := range fm.Flows {
				for _, v := range row {
					w.F64(v)
				}
			}
			for _, v := range fm.Stays {
				w.F64(v)
			}
		}
	}
	if p.Metro500 != nil {
		putF64s(&w, p.Metro500)
	}
	if p.Users != nil {
		w.U32(uint32(len(p.Users)))
		for i := range p.Users {
			u := &p.Users[i]
			w.I64(u.ID)
			w.I64(u.Tweets)
			w.I64(u.DistinctCells)
			w.I64(u.WaitMs)
			w.F64(u.GyrationKM)
		}
	}
	w.U8(byte(len(p.Coverage.TierFolds)))
	for _, tf := range p.Coverage.TierFolds {
		w.I64(tf.Factor)
		w.U32(uint32(tf.Groups))
		w.U32(uint32(tf.Buckets))
	}
	w.U32(uint32(p.Coverage.Buckets))
	w.U32(uint32(p.Coverage.FullBuckets))
	w.U32(uint32(p.Coverage.ResidualBuckets))
	w.I64(p.Coverage.ResidualRecords)
	return w.Bytes()
}

// decodePartial parses the wire format back into a ShardPartial,
// re-attaching area metadata from the embedded gazetteer. It accepts
// only what encodePartial writes: no unknown flag bit, no bool byte but
// 0 or 1, no scale twice, no empty metro column.
func decodePartial(data []byte) (*live.ShardPartial, error) {
	r := wire.NewReader(data)
	if m := r.U32(); m != partialMagic && r.Err() == nil {
		return nil, fmt.Errorf("cluster: partial codec: bad magic %#x", m)
	}
	if ver := r.U16(); ver != partialVersion && r.Err() == nil {
		return nil, fmt.Errorf("cluster: partial codec: unsupported version %d", ver)
	}
	flags := r.U8()
	if flags&^(flagSeen|flagUsers|flagMetro) != 0 {
		return nil, fmt.Errorf("cluster: partial codec: unknown flag bits %#x", flags)
	}
	p := &live.ShardPartial{}
	p.Seen = flags&flagSeen != 0
	p.Tweets = r.I64()
	p.BBox = geo.BBox{MinLat: r.F64(), MinLon: r.F64(), MaxLat: r.F64(), MaxLon: r.F64()}
	p.FirstTS = r.I64()
	p.LastTS = r.I64()
	// A failed read leaves zeros behind it (no scales, no sections), and
	// End below reports it.
	nscales := int(r.U16())
	if nscales > 16 {
		return nil, fmt.Errorf("cluster: partial codec: implausible scale count %d", nscales)
	}
	gaz := census.Australia()
	if nscales > 0 { // keep nil for scale-free plans so round-trips are exact
		p.Scales = make([]census.Scale, nscales)
	}
	for i := range p.Scales {
		p.Scales[i] = census.Scale(r.U8())
		if slices.Contains(p.Scales[:i], p.Scales[i]) && r.Err() == nil {
			return nil, fmt.Errorf("cluster: partial codec: scale %s listed twice", p.Scales[i])
		}
	}
	for _, sc := range p.Scales {
		if r.Bool() {
			if p.Counts == nil {
				p.Counts = map[census.Scale][]float64{}
			}
			p.Counts[sc] = getF64s(&r)
		}
	}
	for _, sc := range p.Scales {
		if !r.Bool() {
			continue
		}
		rs, err := gaz.Regions(sc)
		if err != nil {
			return nil, fmt.Errorf("cluster: partial codec: regions for %s: %w", sc, err)
		}
		n := len(rs.Areas)
		if got := int(r.U32()); got != n && r.Err() == nil {
			return nil, fmt.Errorf("cluster: partial codec: %s flow matrix over %d areas, gazetteer has %d", sc, got, n)
		}
		r.Count(uint64(n*n+n), 8)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("cluster: partial codec: %s flow matrix: %w", sc, err)
		}
		fm := mobility.NewFlowMatrix(rs.Areas)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				fm.Flows[i][j] = r.F64()
			}
		}
		for i := 0; i < n; i++ {
			fm.Stays[i] = r.F64()
		}
		if p.Flows == nil {
			p.Flows = map[census.Scale]*mobility.FlowMatrix{}
		}
		p.Flows[sc] = fm
	}
	if flags&flagMetro != 0 {
		if p.Metro500 = getF64s(&r); p.Metro500 == nil && r.Err() == nil {
			return nil, fmt.Errorf("cluster: partial codec: metro flag over no values")
		}
	}
	if flags&flagUsers != 0 {
		n := r.Count(uint64(r.U32()), userWireBytes)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("cluster: partial codec: user count: %w", err)
		}
		p.Users = make([]live.UserTrajectory, n)
		for i := range p.Users {
			u := &p.Users[i]
			*u = live.UserTrajectory{ID: r.I64(), Tweets: r.I64(), DistinctCells: r.I64(), WaitMs: r.I64(), GyrationKM: r.F64()}
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
	ntiers := int(r.U8())
	if ntiers > 8 {
		return nil, fmt.Errorf("cluster: partial codec: implausible tier count %d", ntiers)
	}
	for i := 0; i < ntiers; i++ {
		p.Coverage.TierFolds = append(p.Coverage.TierFolds, live.TierFold{
			Factor:  r.I64(),
			Groups:  int(r.U32()),
			Buckets: int(r.U32()),
		})
	}
	p.Coverage.Buckets = int(r.U32())
	p.Coverage.FullBuckets = int(r.U32())
	p.Coverage.ResidualBuckets = int(r.U32())
	p.Coverage.ResidualRecords = r.I64()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("cluster: partial codec: %w", err)
	}
	return p, nil
}

// EncodePartials renders a slot-ordered partial list: u32 count, then
// each partial length-prefixed (u32) in the single-partial format. The
// nesting keeps the exactness property — every float still travels as
// its raw bit pattern.
func EncodePartials(ps []*live.ShardPartial) []byte {
	var w wire.Writer
	w.U32(uint32(len(ps)))
	for _, p := range ps {
		enc := encodePartial(p)
		w.U32(uint32(len(enc)))
		w.Raw(enc)
	}
	return w.Bytes()
}

// DecodePartials parses an EncodePartials payload.
func DecodePartials(data []byte) ([]*live.ShardPartial, error) {
	r := wire.NewReader(data)
	n := r.Count(uint64(r.U32()), lenPrefixBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cluster: partial codec: partial count: %w", err)
	}
	out := make([]*live.ShardPartial, 0, n)
	for i := 0; i < n; i++ {
		blob := r.Take(int(r.U32()))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("cluster: partial %d of %d: %w", i, n, err)
		}
		p, err := decodePartial(blob)
		if err != nil {
			return nil, fmt.Errorf("cluster: partial %d of %d: %w", i, n, err)
		}
		out = append(out, p)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("cluster: partial codec: %w", err)
	}
	return out, nil
}

// putF64s writes a length-prefixed float slice. Nil and empty encode
// identically (length 0) and getF64s decodes both to nil.
func putF64s(w *wire.Writer, vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

func getF64s(r *wire.Reader) []float64 {
	n := r.Count(uint64(r.U32()), 8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}
