package mobility

import (
	"math"
	"math/bits"

	"geomob/internal/geo"
)

// VecSum is the exact sum of the unit sphere vectors of one user's tweets
// — the radius-of-gyration accumulator. Each component is held in 128-bit
// fixed point at 2^-60: an addend in [-1, 1] enters as a whole number of
// at most 61 bits, so no int64 tweet count can overflow it, and because
// integer addition is associative, Add and Merge in any order and over
// any partition of the tweets leave the same bits. A float64 sum would
// instead depend on the order of its additions, and every layer that
// merges partial sums would have to replay one particular order.
type VecSum struct{ x, y, z fix128 }

// fix128 is a two's-complement 128-bit integer.
type fix128 struct {
	hi int64
	lo uint64
}

func (a *fix128) add(v int64) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, uint64(v), 0)
	a.hi += v>>63 + int64(carry)
}

func (a *fix128) merge(o fix128) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, o.lo, 0)
	a.hi += o.hi + int64(carry)
}

// float converts through hi'·2^64 + int64(lo) — the low word re-centred
// on zero — so a small negative sum does not cancel against -2^64.
func (a fix128) float() float64 {
	hi, lo := a.hi, int64(a.lo)
	if lo < 0 {
		hi++
	}
	return (float64(hi)*0x1p64 + float64(lo)) / vecUnit
}

const vecUnit = 1 << 60

// Add accumulates one tweet's unit vector (UnitVec).
func (s *VecSum) Add(x, y, z float64) {
	s.x.add(int64(math.Round(x * vecUnit)))
	s.y.add(int64(math.Round(y * vecUnit)))
	s.z.add(int64(math.Round(z * vecUnit)))
}

// Merge accumulates the sum over another part of the same user's tweets.
func (s *VecSum) Merge(o VecSum) {
	s.x.merge(o.x)
	s.y.merge(o.y)
	s.z.merge(o.z)
}

// UnitVec returns the unit sphere vector of p — the per-tweet addend of
// the radius-of-gyration accumulator.
func UnitVec(p geo.Point) (x, y, z float64) {
	lat, lon := p.Radians()
	cosLat := math.Cos(lat)
	return cosLat * math.Cos(lon), cosLat * math.Sin(lon), math.Sin(lat)
}

// GyrationRadiusKM turns the summed unit vectors of one user's n tweets
// into the chord-based radius of gyration in km. The identity
// E‖p − p̄‖² = 1 − ‖p̄‖² needs only the sum; ‖p̄‖ <= 1 with equality only
// when every tweet sits at the same point.
func GyrationRadiusKM(s VecSum, n int) float64 {
	fn := float64(n)
	sx, sy, sz := s.x.float(), s.y.float(), s.z.float()
	norm2 := (sx*sx + sy*sy + sz*sz) / (fn * fn)
	if norm2 > 1 {
		norm2 = 1
	}
	return geo.EarthRadius / 1000 * math.Sqrt(1-norm2)
}

// Words returns the sum's six 64-bit words — x, y and z, each high word
// first — for codecs that must carry it bit for bit.
func (s VecSum) Words() [6]uint64 {
	return [6]uint64{uint64(s.x.hi), s.x.lo, uint64(s.y.hi), s.y.lo, uint64(s.z.hi), s.z.lo}
}

// VecSumFromWords is the inverse of Words.
func VecSumFromWords(w [6]uint64) VecSum {
	return VecSum{
		x: fix128{hi: int64(w[0]), lo: w[1]},
		y: fix128{hi: int64(w[2]), lo: w[3]},
		z: fix128{hi: int64(w[4]), lo: w[5]},
	}
}
