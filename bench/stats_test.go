package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	odd := []float64{5, 1, 3}
	even := []float64{4, 1, 3, 2}
	if got := median(odd); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if got := median(even); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
	// 1..100: the nearest-rank p95 is the 95th smallest.
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// 20 samples: p95 is the 19th smallest, the second largest.
	if got := percentile(v[:20], 95); got != 99 {
		t.Errorf("percentile(20 samples, 95) = %v, want 99", got)
	}
}

// The printed tail is the highest percentile that still has at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// Reference values are Python's statistics.quantiles(v, n=4), the rule
// the benchmark contract names.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 12}, [3]float64{9.5, 11, 12.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got, want := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}), 3.5/3.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
