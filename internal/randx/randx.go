// Package randx provides the seeded random variate generators the synthetic
// data pipeline relies on: bounded Pareto tails, discrete power laws,
// lognormal penetration bias, Poisson counts and weighted choices.
//
// All generators draw from an explicit *rand.Rand (math/rand/v2, PCG), so
// every experiment in the repository is reproducible from a pair of seeds.
package randx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// New returns a deterministic PCG-backed generator for the given seed pair.
func New(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// BoundedPareto draws from the Pareto density truncated to [xmin, xmax] by
// inverse-CDF sampling. Unlike Pareto it admits any alpha > 0 (the
// truncation keeps the density normalisable), which matches the heavy,
// slowly decaying inter-tweet waiting times of Fig. 2b.
func BoundedPareto(rng *rand.Rand, alpha, xmin, xmax float64) float64 {
	if alpha <= 0 || xmin <= 0 || xmax <= xmin {
		panic(fmt.Sprintf("randx: BoundedPareto requires alpha > 0 and 0 < xmin < xmax, got alpha=%v xmin=%v xmax=%v", alpha, xmin, xmax))
	}
	// CDF of the truncated density with exponent -(alpha+1) tail... we use
	// the convention p(x) ∝ x^(−alpha) on [xmin, xmax].
	if alpha == 1 {
		// p(x) ∝ 1/x: inverse CDF is geometric interpolation.
		u := rng.Float64()
		return xmin * math.Pow(xmax/xmin, u)
	}
	u := rng.Float64()
	a1 := 1 - alpha
	lo := math.Pow(xmin, a1)
	hi := math.Pow(xmax, a1)
	return math.Pow(lo+u*(hi-lo), 1/a1)
}

// DiscretePowerLawSampler samples integers k with P(k) ∝ k^(−alpha) on a
// bounded support via the alias-free inverse-CDF table.
type DiscretePowerLawSampler struct {
	kmin int
	cdf  []float64
}

// NewDiscretePowerLaw builds the sampler. kmin must be >= 1 and kmax >= kmin.
// The support size (kmax−kmin+1) is materialised, so keep it below ~10⁷.
func NewDiscretePowerLaw(alpha float64, kmin, kmax int) *DiscretePowerLawSampler {
	if kmin < 1 || kmax < kmin {
		panic(fmt.Sprintf("randx: DiscretePowerLaw requires 1 <= kmin <= kmax, got kmin=%d kmax=%d", kmin, kmax))
	}
	n := kmax - kmin + 1
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(kmin+i), -alpha)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &DiscretePowerLawSampler{kmin: kmin, cdf: cdf}
}

// Sample draws one variate.
func (s *DiscretePowerLawSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.cdf) {
		i = len(s.cdf) - 1
	}
	return s.kmin + i
}

// LogNormal draws from the lognormal distribution where the underlying
// normal has mean mu and standard deviation sigma.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("randx: LogNormal requires sigma >= 0, got %v", sigma))
	}
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// Poisson draws from the Poisson distribution with mean lambda. It uses
// Knuth multiplication for small lambda and the PTRS transformed-rejection
// fallback is avoided by normal approximation above 500, which is far more
// precision than the pipeline needs.
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda < 0 {
		panic(fmt.Sprintf("randx: Poisson requires lambda >= 0, got %v", lambda))
	}
	if lambda == 0 {
		return 0
	}
	if lambda > 500 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// WeightedChoice owns a cumulative table over non-negative weights and
// samples indices proportionally.
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a sampler over the given weights. At least one
// weight must be positive; negative weights are rejected.
func NewWeightedChoice(weights []float64) (*WeightedChoice, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("randx: WeightedChoice requires at least one weight")
	}
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("randx: weight %d is invalid (%v)", i, w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("randx: WeightedChoice requires a positive total weight")
	}
	for i := range cum {
		cum[i] /= total
	}
	return &WeightedChoice{cum: cum}, nil
}

// Sample draws an index with probability proportional to its weight.
func (w *WeightedChoice) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}

// Len returns the number of categories.
func (w *WeightedChoice) Len() int { return len(w.cum) }
