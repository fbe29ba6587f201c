package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := newMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.set(1, 2, 7)
	if m.at(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.at(0, 0) != 0 {
		t.Fatal("new matrix not zeroed")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	newMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.at(2, 1) != 6 {
		t.Fatalf("bad matrix: %+v", m)
	}
	if _, err := fromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := fromRows(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.mulVec([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec wrong: %v", got)
	}
	if _, err := a.mulVec([]float64{1}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Square non-singular system: least squares must equal the exact solve.
	a, _ := fromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := solveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d]: got %v want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// y = 3 + 2x sampled with symmetric noise that cancels exactly.
	a, _ := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{3.1, 4.9, 7.1, 8.9}
	x, err := solveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3.06) > 1e-9 || math.Abs(x[1]-1.96) > 1e-9 {
		t.Fatalf("got %v", x)
	}
}

func TestSolveLeastSquaresRankDeficient(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := solveLeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for rank-deficient design")
	}
}

func TestSolveLeastSquaresWideRejected(t *testing.T) {
	a, _ := fromRows([][]float64{{1, 2, 3}})
	if _, err := solveLeastSquares(a, []float64{1}); err == nil {
		t.Fatal("expected error for wide matrix")
	}
}

// Property: for random well-conditioned overdetermined systems, the residual
// must be orthogonal to every design column (the normal equations).
func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.IntN(40)
		p := 1 + rng.IntN(4)
		a := newMatrix(n, p)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 5
		}
		x, err := solveLeastSquares(a, y)
		if err != nil {
			t.Fatal(err)
		}
		fitted, _ := a.mulVec(x)
		for j := 0; j < p; j++ {
			var dot, norm float64
			for i := 0; i < n; i++ {
				r := y[i] - fitted[i]
				dot += a.at(i, j) * r
				norm += math.Abs(a.at(i, j))
			}
			if math.Abs(dot) > 1e-8*(1+norm) {
				t.Fatalf("trial %d: residual not orthogonal to column %d: dot=%v", trial, j, dot)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			v = 1
		}
		m := newMatrix(2, 2)
		m.set(0, 0, v)
		c := m.clone()
		c.set(0, 0, v+1)
		return m.at(0, 0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
