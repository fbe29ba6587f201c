package models

import (
	"errors"
	"fmt"
	"math"

	"geomob/internal/linalg"
)

// Model is a mobility model that can be fitted to an OD dataset and then
// queried for pairwise flow predictions.
type Model interface {
	// Name returns the display name used in Table II.
	Name() string
	// Fit estimates the model parameters from the dataset.
	Fit(od *OD) error
	// Predict returns the estimated flow from area i to area j. The model
	// must have been fitted first.
	Predict(od *OD, i, j int) (float64, error)
}

// errNotFitted is returned by Predict before a successful Fit.
var errNotFitted = errors.New("models: model has not been fitted")

// ErrInsufficientData marks an estimate the data cannot define — a fit
// with too few positive flow pairs, a rescaling over no users. It is the
// window's property, not a fault: services answer it as unprocessable.
var ErrInsufficientData = errors.New("insufficient data")

// Gravity4 is the 4-parameter gravity model of Eq. 1:
//
//	P ∝ C · m^α · n^β / d^γ
//
// fitted by ordinary least squares in log10 space over the positive pairs.
type Gravity4 struct {
	C      float64 // scaling constant (log10 intercept is log10 C)
	Alpha  float64 // origin population exponent
	Beta   float64 // destination population exponent
	Gamma  float64 // distance decay exponent
	fitted bool
}

// Name implements Model.
func (g *Gravity4) Name() string { return "Gravity 4Param" }

// Fit implements Model.
func (g *Gravity4) Fit(od *OD) error {
	is, js := od.positivePairs()
	if len(is) < 5 {
		return fmt.Errorf("models: gravity-4 needs >= 5 positive pairs, got %d: %w", len(is), ErrInsufficientData)
	}
	design := make([][]float64, len(is))
	y := make([]float64, len(is))
	for k := range is {
		i, j := is[k], js[k]
		design[k] = []float64{
			1,
			math.Log10(od.Pop[i]),
			math.Log10(od.Pop[j]),
			math.Log10(od.DistKM[i][j]),
		}
		y[k] = math.Log10(od.Flow[i][j])
	}
	res, err := linalg.OLS(design, y)
	if err != nil {
		return fmt.Errorf("models: gravity-4 fit: %w", err)
	}
	g.C = math.Pow(10, res.Coef[0])
	g.Alpha = res.Coef[1]
	g.Beta = res.Coef[2]
	g.Gamma = -res.Coef[3]
	g.fitted = true
	return nil
}

// Predict implements Model.
func (g *Gravity4) Predict(od *OD, i, j int) (float64, error) {
	if !g.fitted {
		return 0, errNotFitted
	}
	if i == j {
		return 0, fmt.Errorf("models: gravity-4 predict: self-pair %d", i)
	}
	m, n, d := od.Pop[i], od.Pop[j], od.DistKM[i][j]
	if m <= 0 || n <= 0 || d <= 0 {
		return 0, nil
	}
	return g.C * math.Pow(m, g.Alpha) * math.Pow(n, g.Beta) / math.Pow(d, g.Gamma), nil
}

// Gravity2 is the 2-parameter gravity model of Eq. 2:
//
//	P ∝ C · m·n / d^γ
//
// fitted by simple least squares of (log10 F − log10 mn) on log10 d.
type Gravity2 struct {
	C      float64
	Gamma  float64
	fitted bool
}

// Name implements Model.
func (g *Gravity2) Name() string { return "Gravity 2Param" }

// Fit implements Model.
func (g *Gravity2) Fit(od *OD) error {
	is, js := od.positivePairs()
	if len(is) < 3 {
		return fmt.Errorf("models: gravity-2 needs >= 3 positive pairs, got %d: %w", len(is), ErrInsufficientData)
	}
	x := make([]float64, len(is))
	y := make([]float64, len(is))
	for k := range is {
		i, j := is[k], js[k]
		x[k] = math.Log10(od.DistKM[i][j])
		y[k] = math.Log10(od.Flow[i][j]) - math.Log10(od.Pop[i]*od.Pop[j])
	}
	intercept, slope, err := linalg.SimpleOLS(x, y)
	if err != nil {
		return fmt.Errorf("models: gravity-2 fit: %w", err)
	}
	g.C = math.Pow(10, intercept)
	g.Gamma = -slope
	g.fitted = true
	return nil
}

// Predict implements Model.
func (g *Gravity2) Predict(od *OD, i, j int) (float64, error) {
	if !g.fitted {
		return 0, errNotFitted
	}
	if i == j {
		return 0, fmt.Errorf("models: gravity-2 predict: self-pair %d", i)
	}
	m, n, d := od.Pop[i], od.Pop[j], od.DistKM[i][j]
	if m <= 0 || n <= 0 || d <= 0 {
		return 0, nil
	}
	return g.C * m * n / math.Pow(d, g.Gamma), nil
}

// Radiation is the parameter-free radiation model of Eq. 3 up to a single
// scaling constant C:
//
//	P ∝ C · m·n / ((m+s)(m+n+s))
//
// where s is the population within the origin-centred disc of radius d,
// excluding origin and destination. C is fitted as the geometric-mean
// offset in log10 space, consistent with the log-scale evaluation.
type Radiation struct {
	C      float64
	fitted bool
}

// Name implements Model.
func (r *Radiation) Name() string { return "Radiation" }

// kernel returns the parameter-free part of Eq. 3.
func (r *Radiation) kernel(od *OD, i, j int) float64 {
	m, n := od.Pop[i], od.Pop[j]
	if m <= 0 || n <= 0 {
		return 0
	}
	s := od.S[i][j]
	den := (m + s) * (m + n + s)
	if den <= 0 {
		return 0
	}
	return m * n / den
}

// Fit implements Model.
func (r *Radiation) Fit(od *OD) error {
	is, js := od.positivePairs()
	if len(is) < 3 {
		return fmt.Errorf("models: radiation needs >= 3 positive pairs, got %d: %w", len(is), ErrInsufficientData)
	}
	var sum float64
	var count int
	for k := range is {
		i, j := is[k], js[k]
		kv := r.kernel(od, i, j)
		if kv <= 0 {
			continue
		}
		sum += math.Log10(od.Flow[i][j]) - math.Log10(kv)
		count++
	}
	if count < 3 {
		return fmt.Errorf("models: radiation has only %d pairs with positive kernel: %w", count, ErrInsufficientData)
	}
	r.C = math.Pow(10, sum/float64(count))
	r.fitted = true
	return nil
}

// Predict implements Model.
func (r *Radiation) Predict(od *OD, i, j int) (float64, error) {
	if !r.fitted {
		return 0, errNotFitted
	}
	if i == j {
		return 0, fmt.Errorf("models: radiation predict: self-pair %d", i)
	}
	return r.C * r.kernel(od, i, j), nil
}

// All returns fresh instances of the three models in the paper's column
// order: Gravity 4Param, Gravity 2Param, Radiation.
func All() []Model {
	return []Model{&Gravity4{}, &Gravity2{}, &Radiation{}}
}
