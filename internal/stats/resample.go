package stats

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// BootstrapCI is a percentile bootstrap confidence interval.
type BootstrapCI struct {
	Lo, Hi   float64 // interval bounds
	Level    float64 // nominal coverage, e.g. 0.95
	Point    float64 // statistic on the original sample
	Resample int     // number of bootstrap replicates
}

// BootstrapPearsonCI computes a percentile-bootstrap confidence interval
// for the Pearson correlation by resampling (x, y) pairs with replacement.
// Replicates on which the correlation is undefined (constant resample) are
// redrawn up to a bounded number of attempts.
func BootstrapPearsonCI(x, y []float64, level float64, resamples int, seed1, seed2 uint64) (*BootstrapCI, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: bootstrap length mismatch: %d vs %d", len(x), len(y))
	}
	if len(x) < 3 {
		return nil, fmt.Errorf("stats: bootstrap requires >= 3 pairs, got %d", len(x))
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("stats: bootstrap level must lie in (0,1), got %v", level)
	}
	if resamples < 10 {
		return nil, fmt.Errorf("stats: bootstrap requires >= 10 resamples, got %d", resamples)
	}
	point, err := Pearson(x, y)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed1, seed2))
	n := len(x)
	rs := make([]float64, 0, resamples)
	bx := make([]float64, n)
	by := make([]float64, n)
	attempts := 0
	maxAttempts := resamples * 10
	for len(rs) < resamples && attempts < maxAttempts {
		attempts++
		for i := 0; i < n; i++ {
			k := rng.IntN(n)
			bx[i] = x[k]
			by[i] = y[k]
		}
		r, err := Pearson(bx, by)
		if err != nil {
			continue // degenerate resample; redraw
		}
		rs = append(rs, r)
	}
	if len(rs) < resamples {
		return nil, fmt.Errorf("stats: bootstrap produced only %d of %d valid replicates", len(rs), resamples)
	}
	sort.Float64s(rs)
	alpha := 1 - level
	lo, err := quantile(rs, alpha/2)
	if err != nil {
		return nil, err
	}
	hi, err := quantile(rs, 1-alpha/2)
	if err != nil {
		return nil, err
	}
	return &BootstrapCI{Lo: lo, Hi: hi, Level: level, Point: point, Resample: resamples}, nil
}
