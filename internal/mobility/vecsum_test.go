package mobility

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"geomob/internal/geo"
)

// bigOf is a's value as an arbitrary-precision integer.
func bigOf(a fix128) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(a.hi), 64)
	return v.Add(v, new(big.Int).SetUint64(a.lo))
}

// TestFix128Boundary walks the accumulator across the 2^64 carry in both
// directions and through zero, against math/big.
func TestFix128Boundary(t *testing.T) {
	steps := []int64{
		math.MaxInt64, math.MaxInt64, 2, // lo wraps: 2^64 exactly
		-1, 1, // borrow back below 2^64 and carry up again
		math.MinInt64, math.MinInt64, // back to zero
		-1,                                 // below zero: hi = -1, lo = 2^64-1
		-math.MaxInt64, -math.MaxInt64, -2, // down through -2^64
		1 << 60, -(1 << 60), 5,
	}
	var acc fix128
	want := new(big.Int)
	for i, v := range steps {
		acc.add(v)
		want.Add(want, big.NewInt(v))
		if got := bigOf(acc); got.Cmp(want) != 0 {
			t.Fatalf("after step %d (%+d): acc = %v, want %v", i, v, got, want)
		}
		wf, _ := new(big.Float).SetInt(want).Float64()
		if got := acc.float() * vecUnit; math.Abs(got-wf) > math.Abs(wf)*0x1p-52 {
			t.Errorf("after step %d: float() = %v, want %v", i, got, wf)
		}
	}
	// merge carries the same way add does.
	a, b := fix128{hi: 0, lo: math.MaxUint64}, fix128{hi: -3, lo: 7}
	sum := new(big.Int).Add(bigOf(a), bigOf(b))
	a.merge(b)
	if bigOf(a).Cmp(sum) != 0 {
		t.Errorf("merge across the carry: %v, want %v", bigOf(a), sum)
	}
	// A small negative sum must not vanish against -2^64.
	if got := (fix128{hi: -1, lo: math.MaxUint64 - 4}).float() * vecUnit; got != -5 {
		t.Errorf("float() of -5 = %v", got)
	}
}

// TestVecSumOrderIndependent: the sum of random unit vectors is the same
// bits under any permutation and any partition merged in any order — the
// property every partial, rollup and shard merge relies on.
func TestVecSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(400)
		vecs := make([][3]float64, n)
		for i := range vecs {
			p := geo.Point{Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}
			vecs[i][0], vecs[i][1], vecs[i][2] = UnitVec(p)
		}
		var serial VecSum
		for _, v := range vecs {
			serial.Add(v[0], v[1], v[2])
		}
		rng.Shuffle(n, func(i, j int) { vecs[i], vecs[j] = vecs[j], vecs[i] })
		parts := make([]VecSum, 1+rng.IntN(8))
		for _, v := range vecs {
			parts[rng.IntN(len(parts))].Add(v[0], v[1], v[2])
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		var merged VecSum
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged != serial {
			t.Fatalf("trial %d: %d addends over %d parts: merged %+v, serial %+v", trial, n, len(parts), merged, serial)
		}
	}
}

// TestStationaryUserHasNoRadius: a user who never moves has radius zero.
// The ordered float64 sum this replaced read up to 2 m here at 10 000
// tweets; the exact sum leaves only the final conversion's rounding.
func TestStationaryUserHasNoRadius(t *testing.T) {
	for _, p := range []geo.Point{
		{Lat: -33.8688, Lon: 151.2093}, // Sydney
		{Lat: -37.8136, Lon: 144.9631}, // Melbourne
		{Lat: -12.4634, Lon: 130.8456}, // Darwin
	} {
		var s VecSum
		for n := 1; n <= 10000; n++ {
			s.Add(UnitVec(p))
			if n == 1 || n == 100 || n == 10000 {
				if r := GyrationRadiusKM(s, n); !(r < 1e-3) {
					t.Errorf("%v: %d tweets at one point read %g km", p, n, r)
				}
			}
		}
	}
}
