package stats

import (
	"fmt"
	"math"
)

// RMSE returns the root-mean-square error between predictions and
// observations.
func RMSE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, fmt.Errorf("stats: RMSE length mismatch: %d vs %d", len(pred), len(obs))
	}
	if len(pred) == 0 {
		return 0, errEmpty
	}
	var ss float64
	for i := range pred {
		d := pred[i] - obs[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(pred))), nil
}

// HitRate returns the fraction of predictions whose relative error
// |pred − obs| / obs is at most tol. Pairs with obs == 0 are skipped (their
// relative error is undefined); if every pair is skipped an error is
// returned. HitRate(pred, obs, 0.5) is the paper's HitRate@50% (Table II).
func HitRate(pred, obs []float64, tol float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, fmt.Errorf("stats: HitRate length mismatch: %d vs %d", len(pred), len(obs))
	}
	if tol < 0 {
		return 0, fmt.Errorf("stats: HitRate tolerance must be non-negative, got %v", tol)
	}
	var hits, valid int
	for i := range pred {
		if obs[i] == 0 {
			continue
		}
		valid++
		if math.Abs(pred[i]-obs[i])/math.Abs(obs[i]) <= tol {
			hits++
		}
	}
	if valid == 0 {
		return 0, fmt.Errorf("stats: HitRate has no pairs with nonzero observation")
	}
	return float64(hits) / float64(valid), nil
}

// Log10Positive returns parallel slices holding log10 of the entries where
// both inputs are strictly positive, dropping the rest. Model evaluation in
// Table II correlates traffic on the log scale, matching the log-log
// scatter of Fig. 4.
func Log10Positive(x, y []float64) (lx, ly []float64, dropped int, err error) {
	if len(x) != len(y) {
		return nil, nil, 0, fmt.Errorf("stats: Log10Positive length mismatch: %d vs %d", len(x), len(y))
	}
	lx = make([]float64, 0, len(x))
	ly = make([]float64, 0, len(y))
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log10(x[i]))
			ly = append(ly, math.Log10(y[i]))
		} else {
			dropped++
		}
	}
	return lx, ly, dropped, nil
}
