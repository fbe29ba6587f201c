package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	if sum(nil) != 0 {
		t.Error("sum(nil) != 0")
	}
	if sum([]float64{1, 2, 3}) != 6 {
		t.Error("Sum wrong")
	}
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should fail")
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Sample variance with n−1 denominator: ss=32, n−1=7.
	if !almost(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	sd, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almost(sd, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
	if _, err := variance([]float64{1}); err == nil {
		t.Error("Variance of single value should fail")
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := minMax([]float64{3, -1, 4, 1, 5})
	if err != nil || min != -1 || max != 5 {
		t.Errorf("minMax = %v %v %v", min, max, err)
	}
	if _, _, err := minMax(nil); err == nil {
		t.Error("minMax(nil) should fail")
	}
}

func TestMedianQuantile(t *testing.T) {
	med, err := Median([]float64{3, 1, 2})
	if err != nil || med != 2 {
		t.Errorf("Median odd = %v", med)
	}
	med, _ = Median([]float64{4, 1, 2, 3})
	if med != 2.5 {
		t.Errorf("Median even = %v, want 2.5", med)
	}
	// Quantile interpolation (type 7): q=0.25 of 1..5 is 2.
	q, _ := quantile([]float64{1, 2, 3, 4, 5}, 0.25)
	if q != 2 {
		t.Errorf("Q1 = %v, want 2", q)
	}
	q, _ = quantile([]float64{1, 2, 3, 4}, 0.25)
	if !almost(q, 1.75, 1e-12) {
		t.Errorf("Q1 of 1..4 = %v, want 1.75", q)
	}
	if v, _ := quantile([]float64{7}, 0.9); v != 7 {
		t.Errorf("single-element quantile = %v", v)
	}
	if _, err := quantile([]float64{1}, 1.5); err == nil {
		t.Error("quantile > 1 should fail")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of empty should fail")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		xs := []float64{1, 5, 2, 8, 3, 9, 4, float64(seed % 100)}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v, err := quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBetweenMinMax(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		xs := []float64{}
		for _, v := range []float64{a, b, c, d} {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, err := Mean(xs)
		if err != nil {
			return false
		}
		min, max, _ := minMax(xs)
		return m >= min-1e-9 && m <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
