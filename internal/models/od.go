// Package models implements the paper's two mobility models — the Gravity
// model in its 4-parameter (Eq. 1) and 2-parameter (Eq. 2) forms, and the
// Radiation model (Eq. 3) — together with the origin–destination dataset
// builder (including the radiation s-term), log-space least-squares
// fitting, and the Table II evaluation metrics (Pearson correlation and
// HitRate@50%).
package models

import (
	"fmt"
	"math"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/stats"
)

// OD is the origin–destination dataset for one region set: populations,
// pairwise distances, radiation s-terms and observed flows.
type OD struct {
	Areas  []census.Area
	Pop    []float64   // population of each area (Twitter-derived or census)
	DistKM [][]float64 // great-circle distances between area centres, km
	S      [][]float64 // radiation s_ij: population within the d_ij disc around i, excluding i and j
	Flow   [][]float64 // observed flow counts (off-diagonal)
}

// BuildOD assembles the dataset. pop[i] must correspond to areas[i]; flows
// is the off-diagonal observed flow matrix from mobility extraction.
// Populations may be zero (areas with no observed users) — model fits skip
// pairs that are not strictly positive in every regressor.
func BuildOD(areas []census.Area, pop []float64, flow [][]float64) (*OD, error) {
	n := len(areas)
	if n < 3 {
		return nil, fmt.Errorf("models: need at least 3 areas, got %d", n)
	}
	if len(pop) != n || len(flow) != n {
		return nil, fmt.Errorf("models: dimension mismatch: %d areas, %d populations, %d flow rows", n, len(pop), len(flow))
	}
	for i := range flow {
		if len(flow[i]) != n {
			return nil, fmt.Errorf("models: flow row %d has %d columns, want %d", i, len(flow[i]), n)
		}
		if pop[i] < 0 {
			return nil, fmt.Errorf("models: negative population %v for area %q", pop[i], areas[i].Name)
		}
	}
	od := &OD{Areas: areas, Pop: pop, Flow: flow}
	od.DistKM = make([][]float64, n)
	for i := 0; i < n; i++ {
		od.DistKM[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			od.DistKM[i][j] = geo.Haversine(areas[i].Center, areas[j].Center) / 1000
		}
	}
	// Radiation s-term: for each ordered pair (i, j), the total population
	// of areas strictly within distance d_ij of i, excluding i and j
	// themselves (Eq. 3's definition).
	od.S = make([][]float64, n)
	for i := 0; i < n; i++ {
		od.S[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := od.DistKM[i][j]
			var s float64
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if od.DistKM[i][k] <= d {
					s += pop[k]
				}
			}
			od.S[i][j] = s
		}
	}
	return od, nil
}

// N returns the number of areas.
func (od *OD) N() int { return len(od.Areas) }

// positivePairs returns the ordered (i, j) pairs usable for fitting:
// i != j, positive flow, positive populations at both ends and positive
// distance.
func (od *OD) positivePairs() (is, js []int) {
	n := od.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if od.Flow[i][j] > 0 && od.Pop[i] > 0 && od.Pop[j] > 0 && od.DistKM[i][j] > 0 {
				is = append(is, i)
				js = append(js, j)
			}
		}
	}
	return is, js
}

// Metrics are the Table II evaluation numbers for one model on one scale,
// plus the Common Part of Commuters score standard in the mobility
// literature.
type Metrics struct {
	PearsonLog float64 // Pearson between log10 predicted and log10 observed
	HitRate50  float64 // share of pairs with relative error <= 50%
	RMSELog    float64 // RMSE on log10 values (supplementary)
	CPC        float64 // common part of commuters: 2·Σmin(pred,obs)/(Σpred+Σobs)
	N          int     // number of evaluated pairs
}

// CommonPartOfCommuters returns 2·Σ min(pred, obs) / (Σpred + Σobs), the
// Sørensen-style overlap between two flow assignments (1 = identical).
func CommonPartOfCommuters(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, fmt.Errorf("models: CPC length mismatch: %d vs %d", len(pred), len(obs))
	}
	var common, total float64
	for i := range pred {
		p, o := pred[i], obs[i]
		if p < 0 || o < 0 {
			return 0, fmt.Errorf("models: CPC requires non-negative flows, got (%v, %v) at %d", p, o, i)
		}
		common += math.Min(p, o)
		total += p + o
	}
	if total == 0 {
		return 0, fmt.Errorf("models: CPC undefined for all-zero flows")
	}
	return 2 * common / total, nil
}

// Evaluate scores a fitted model against the observed flows over the
// positive pairs, on the log scale the paper's Fig. 4 uses.
func Evaluate(od *OD, m Model) (*Metrics, error) {
	is, js := od.positivePairs()
	if len(is) < 3 {
		return nil, fmt.Errorf("models: only %d positive pairs to evaluate: %w", len(is), ErrInsufficientData)
	}
	pred := make([]float64, len(is))
	obs := make([]float64, len(is))
	for k := range is {
		p, err := m.Predict(od, is[k], js[k])
		if err != nil {
			return nil, err
		}
		pred[k] = p
		obs[k] = od.Flow[is[k]][js[k]]
	}
	lp, lo, _, err := stats.Log10Positive(pred, obs)
	if err != nil {
		return nil, err
	}
	if len(lp) < 3 {
		return nil, fmt.Errorf("models: only %d positive predictions to correlate: %w", len(lp), ErrInsufficientData)
	}
	r, err := stats.Pearson(lp, lo)
	if err != nil {
		return nil, fmt.Errorf("models: evaluate pearson: %w", err)
	}
	hr, err := stats.HitRate(pred, obs, 0.5)
	if err != nil {
		return nil, fmt.Errorf("models: evaluate hitrate: %w", err)
	}
	rmse, err := stats.RMSE(lp, lo)
	if err != nil {
		return nil, fmt.Errorf("models: evaluate rmse: %w", err)
	}
	cpc, err := CommonPartOfCommuters(pred, obs)
	if err != nil {
		return nil, fmt.Errorf("models: evaluate cpc: %w", err)
	}
	return &Metrics{PearsonLog: r, HitRate50: hr, RMSELog: rmse, CPC: cpc, N: len(pred)}, nil
}

// ScatterSeries extracts the Fig. 4 plotting data for a fitted model:
// the (estimated, observed) pairs and the log-binned means (the paper's
// red dots), using binsPerDecade logarithmic bins.
func ScatterSeries(od *OD, m Model, binsPerDecade int) (est, obs []float64, binned []stats.Bin, err error) {
	is, js := od.positivePairs()
	for k := range is {
		p, err := m.Predict(od, is[k], js[k])
		if err != nil {
			return nil, nil, nil, err
		}
		est = append(est, p)
		obs = append(obs, od.Flow[is[k]][js[k]])
	}
	binned, err = stats.LogBinScatter(est, obs, binsPerDecade)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("models: scatter binning: %w", err)
	}
	return est, obs, binned, nil
}
