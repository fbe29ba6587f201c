// Package population implements §III of the paper: estimating the census
// population distribution from the per-area unique Twitter user counts,
// via a single rescaling factor C with C·p_Twitter ≈ p_Census, and
// quantifying the agreement with a pooled Pearson correlation over the
// three geographic scales.
package population

import (
	"fmt"
	"slices"

	"geomob/internal/census"
	"geomob/internal/linalg"
	"geomob/internal/models"
	"geomob/internal/stats"
)

// Estimate is the population estimate for one region set.
type Estimate struct {
	Scale        census.Scale
	Radius       float64   // search radius ε used to extract users, metres
	TwitterUsers []float64 // unique users per area
	Census       []float64 // census population per area
	C            float64   // rescaling factor: C·TwitterUsers ≈ Census
	Rescaled     []float64 // C·TwitterUsers
	MedianUsers  float64   // median per-area user count (paper §III)
}

// NewEstimate computes the rescaling for one scale. twitterUsers[i] must
// correspond to rs.Areas[i].
func NewEstimate(rs census.RegionSet, radius float64, twitterUsers []float64) (*Estimate, error) {
	if len(twitterUsers) != len(rs.Areas) {
		return nil, fmt.Errorf("population: %d user counts for %d areas", len(twitterUsers), len(rs.Areas))
	}
	if !slices.ContainsFunc(twitterUsers, func(v float64) bool { return v != 0 }) {
		return nil, fmt.Errorf("population: no Twitter user in any %s area: %w", rs.Scale, models.ErrInsufficientData)
	}
	censusPop := rs.Populations()
	c, err := linalg.ScaleThroughOrigin(twitterUsers, censusPop)
	if err != nil {
		return nil, fmt.Errorf("population: rescaling factor: %w", err)
	}
	rescaled := make([]float64, len(twitterUsers))
	for i, v := range twitterUsers {
		rescaled[i] = c * v
	}
	med, err := stats.Median(twitterUsers)
	if err != nil {
		return nil, fmt.Errorf("population: median users: %w", err)
	}
	return &Estimate{
		Scale:        rs.Scale,
		Radius:       radius,
		TwitterUsers: twitterUsers,
		Census:       censusPop,
		C:            c,
		Rescaled:     rescaled,
		MedianUsers:  med,
	}, nil
}

// Correlation reports the scale's own Pearson test between the rescaled
// Twitter population and the census population, computed on log10 values
// (the quantities span three decades; Fig. 3 plots them log-log).
func (e *Estimate) Correlation() (*stats.CorrelationTest, error) {
	lx, ly, dropped, err := stats.Log10Positive(e.Rescaled, e.Census)
	if err != nil {
		return nil, err
	}
	if dropped > 0 && len(lx) < 3 {
		return nil, fmt.Errorf("population: only %d usable areas after dropping %d empty ones", len(lx), dropped)
	}
	return stats.PearsonTest(lx, ly)
}

// Pooled combines the per-scale estimates into the paper's headline
// statistic: the Pearson correlation (with two-tailed p) over all areas of
// all scales pooled together — 60 samples in the paper, r = 0.816,
// p = 2.06e-15.
type Pooled struct {
	Test     *stats.CorrelationTest
	TestLog  *stats.CorrelationTest
	NSamples int
}

// Pool runs the pooled correlation across the estimates.
func Pool(estimates []*Estimate) (*Pooled, error) {
	if len(estimates) == 0 {
		return nil, fmt.Errorf("population: no estimates to pool")
	}
	var x, y []float64
	for _, e := range estimates {
		x = append(x, e.Rescaled...)
		y = append(y, e.Census...)
	}
	raw, err := stats.PearsonTest(x, y)
	if err != nil {
		return nil, fmt.Errorf("population: pooled correlation: %w", err)
	}
	lx, ly, _, err := stats.Log10Positive(x, y)
	if err != nil {
		return nil, err
	}
	logTest, err := stats.PearsonTest(lx, ly)
	if err != nil {
		return nil, fmt.Errorf("population: pooled log correlation: %w", err)
	}
	return &Pooled{Test: raw, TestLog: logTest, NSamples: len(x)}, nil
}
