// Package stats implements the statistical toolkit the reproduction needs:
// descriptive statistics, Pearson/Spearman correlation with two-tailed
// p-values (Student-t via the regularised incomplete beta function),
// linear- and log-scale histograms, logarithmic binning of scatter data
// (Fig. 4's red dots), Clauset-style power-law fitting (Fig. 2a) and the
// error metrics used in Table II (HitRate@q).
//
// Everything is implemented from scratch on math; no external numerical
// libraries are used.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// errEmpty is returned by functions that require at least one observation.
var errEmpty = errors.New("stats: empty input")

// sum returns the sum of xs (0 for empty input).
func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	return sum(xs) / float64(len(xs)), nil
}

// variance returns the unbiased (n−1) sample variance of xs.
func variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: variance requires at least 2 observations, got %d", len(xs))
	}
	m, _ := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// minMax returns the smallest and largest values in xs.
func minMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errEmpty
	}
	min, max = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nil
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) (float64, error) {
	return quantile(xs, 0.5)
}

// quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The input
// is not modified.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
