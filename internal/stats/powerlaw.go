package stats

import (
	"fmt"
	"math"
	"sort"
)

// PowerLawFit is the result of fitting P(x) ∝ x^(−Alpha) for x >= XMin.
type PowerLawFit struct {
	Alpha float64 // fitted exponent
	XMin  float64 // lower cutoff used in the fit
	N     int     // number of tail observations (x >= XMin)
	KS    float64 // Kolmogorov–Smirnov distance between data and fit
}

// FitPowerLaw estimates the exponent of a continuous power-law tail by
// maximum likelihood (the Hill/Clauset estimator):
//
//	α̂ = 1 + n / Σ ln(x_i / xmin)
//
// for the observations with x >= xmin. The discrete-data correction
// (xmin − ½) is applied when discrete is true, which is appropriate for
// count data such as tweets-per-user (Fig. 2a).
func FitPowerLaw(xs []float64, xmin float64, discrete bool) (*PowerLawFit, error) {
	if xmin <= 0 {
		return nil, fmt.Errorf("stats: power-law xmin must be positive, got %v", xmin)
	}
	tail := make([]float64, 0, len(xs))
	for _, v := range xs {
		if v >= xmin {
			tail = append(tail, v)
		}
	}
	if len(tail) < 2 {
		return nil, fmt.Errorf("stats: power-law fit needs >= 2 tail observations, got %d", len(tail))
	}
	denomRef := xmin
	if discrete {
		denomRef = xmin - 0.5
	}
	var logSum float64
	for _, v := range tail {
		logSum += math.Log(v / denomRef)
	}
	if logSum <= 0 {
		return nil, fmt.Errorf("stats: degenerate power-law tail (all observations at xmin)")
	}
	alpha := 1 + float64(len(tail))/logSum
	fit := &PowerLawFit{Alpha: alpha, XMin: xmin, N: len(tail)}
	fit.KS = powerLawKS(tail, alpha, xmin)
	return fit, nil
}

// powerLawKS returns the KS distance between the empirical CDF of the tail
// and the fitted continuous power-law CDF 1 − (x/xmin)^(1−α).
func powerLawKS(tail []float64, alpha, xmin float64) float64 {
	sorted := append([]float64(nil), tail...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var maxDist float64
	for i, v := range sorted {
		model := 1 - math.Pow(v/xmin, 1-alpha)
		empLo := float64(i) / n
		empHi := float64(i+1) / n
		d := math.Max(math.Abs(model-empLo), math.Abs(model-empHi))
		if d > maxDist {
			maxDist = d
		}
	}
	return maxDist
}
