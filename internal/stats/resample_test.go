package stats

import (
	"math/rand/v2"
	"testing"
)

func TestBootstrapPearsonCICoversPoint(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.8*x[i] + 0.4*rng.NormFloat64()
	}
	ci, err := BootstrapPearsonCI(x, y, 0.95, 500, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > ci.Point || ci.Hi < ci.Point {
		t.Errorf("interval [%v, %v] does not cover the point estimate %v", ci.Lo, ci.Hi, ci.Point)
	}
	if ci.Lo >= ci.Hi {
		t.Errorf("degenerate interval [%v, %v]", ci.Lo, ci.Hi)
	}
	if ci.Hi-ci.Lo > 0.5 {
		t.Errorf("interval too wide for a strong correlation: [%v, %v]", ci.Lo, ci.Hi)
	}
	if ci.Lo < -1 || ci.Hi > 1 {
		t.Errorf("interval escapes [-1,1]: [%v, %v]", ci.Lo, ci.Hi)
	}
}

func TestBootstrapWiderAtLowerN(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	big := 200
	x := make([]float64, big)
	y := make([]float64, big)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.6*x[i] + 0.8*rng.NormFloat64()
	}
	wide, err := BootstrapPearsonCI(x[:20], y[:20], 0.95, 400, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := BootstrapPearsonCI(x, y, 0.95, 400, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Hi-wide.Lo <= narrow.Hi-narrow.Lo {
		t.Errorf("n=20 interval (%v) should be wider than n=200 (%v)",
			wide.Hi-wide.Lo, narrow.Hi-narrow.Lo)
	}
}

func TestBootstrapErrors(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if _, err := BootstrapPearsonCI(x[:2], y[:2], 0.95, 100, 1, 2); err == nil {
		t.Error("n=2 should fail")
	}
	if _, err := BootstrapPearsonCI(x, y[:3], 0.95, 100, 1, 2); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := BootstrapPearsonCI(x, y, 1.5, 100, 1, 2); err == nil {
		t.Error("level > 1 should fail")
	}
	if _, err := BootstrapPearsonCI(x, y, 0.95, 5, 1, 2); err == nil {
		t.Error("too few resamples should fail")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 3, 5, 6, 9, 11, 14, 18}
	a, err := BootstrapPearsonCI(x, y, 0.9, 200, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapPearsonCI(x, y, 0.9, 200, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi {
		t.Errorf("same seed gave different intervals: %+v vs %+v", a, b)
	}
}
