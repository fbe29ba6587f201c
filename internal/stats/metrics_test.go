package stats

import (
	"math"
	"testing"
)

func TestRMSE(t *testing.T) {
	v, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || v != 0 {
		t.Errorf("identical: %v %v", v, err)
	}
	v, _ = RMSE([]float64{0, 0}, []float64{3, 4})
	if !almost(v, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v, want %v", v, math.Sqrt(12.5))
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestHitRate(t *testing.T) {
	obs := []float64{100, 100, 100, 100}
	pred := []float64{100, 149, 151, 40}
	// Relative errors: 0, 0.49, 0.51, 0.6 → 2 of 4 within 50%.
	hr, err := HitRate(pred, obs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(hr, 0.5, 1e-12) {
		t.Errorf("HitRate = %v, want 0.5", hr)
	}
}

func TestHitRateBoundaryInclusive(t *testing.T) {
	// Exactly 50% relative error counts as a hit (<=).
	hr, err := HitRate([]float64{150}, []float64{100}, 0.5)
	if err != nil || hr != 1 {
		t.Errorf("boundary: %v %v", hr, err)
	}
}

func TestHitRateSkipsZeroObs(t *testing.T) {
	hr, err := HitRate([]float64{5, 100}, []float64{0, 100}, 0.5)
	if err != nil || hr != 1 {
		t.Errorf("zero-obs skip: %v %v", hr, err)
	}
	if _, err := HitRate([]float64{5}, []float64{0}, 0.5); err == nil {
		t.Error("all-zero observations should fail")
	}
	if _, err := HitRate([]float64{1}, []float64{1}, -0.1); err == nil {
		t.Error("negative tolerance should fail")
	}
	if _, err := HitRate([]float64{1, 2}, []float64{1}, 0.5); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestHitRateMonotoneInTolerance(t *testing.T) {
	pred := []float64{90, 130, 60, 210, 100}
	obs := []float64{100, 100, 100, 100, 100}
	prev := -1.0
	for _, tol := range []float64{0, 0.1, 0.3, 0.5, 1.0, 2.0} {
		hr, err := HitRate(pred, obs, tol)
		if err != nil {
			t.Fatal(err)
		}
		if hr < prev {
			t.Fatalf("HitRate decreased as tolerance grew: %v -> %v at %v", prev, hr, tol)
		}
		prev = hr
	}
	if prev != 1 {
		t.Errorf("HitRate at huge tolerance should be 1, got %v", prev)
	}
}

func TestLog10Positive(t *testing.T) {
	x := []float64{10, 0, 100, -5, 1000}
	y := []float64{1, 1, 10, 1, 0}
	lx, ly, dropped, err := Log10Positive(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	if len(lx) != 2 || !almost(lx[0], 1, 1e-12) || !almost(ly[1], 1, 1e-12) {
		t.Errorf("lx=%v ly=%v", lx, ly)
	}
	if _, _, _, err := Log10Positive([]float64{1}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
}
