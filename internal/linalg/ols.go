package linalg

import (
	"errors"
	"fmt"
	"math"
)

// OLSResult holds an ordinary-least-squares fit y ≈ X·β.
type OLSResult struct {
	Coef      []float64 // fitted coefficients β, one per design column
	Residuals []float64 // y − X·β
	RSS       float64   // residual sum of squares
	TSS       float64   // total sum of squares about the mean of y
	R2        float64   // coefficient of determination, 1 − RSS/TSS
	N         int       // number of observations
	P         int       // number of parameters
}

// OLS fits y ≈ X·β by least squares. Each row of x is one observation; the
// caller includes an explicit intercept column (of ones) if desired. The fit
// uses Householder QR, which is numerically preferable to forming the normal
// equations.
func OLS(x [][]float64, y []float64) (*OLSResult, error) {
	if len(x) == 0 {
		return nil, errors.New("linalg: OLS requires at least one observation")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("linalg: OLS design has %d rows but y has %d values", len(x), len(y))
	}
	a, err := fromRows(x)
	if err != nil {
		return nil, err
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: OLS is underdetermined: %d observations for %d parameters", a.Rows, a.Cols)
	}
	coef, err := solveLeastSquares(a, y)
	if err != nil {
		return nil, err
	}
	fitted, err := a.mulVec(coef)
	if err != nil {
		return nil, err
	}
	res := &OLSResult{Coef: coef, N: a.Rows, P: a.Cols}
	res.Residuals = make([]float64, len(y))
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	for i, v := range y {
		r := v - fitted[i]
		res.Residuals[i] = r
		res.RSS += r * r
		d := v - meanY
		res.TSS += d * d
	}
	if res.TSS > 0 {
		res.R2 = 1 - res.RSS/res.TSS
	}
	return res, nil
}

// SimpleOLS fits the univariate line y ≈ a + b·x and returns the intercept
// and slope.
func SimpleOLS(x, y []float64) (intercept, slope float64, err error) {
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("linalg: SimpleOLS length mismatch: %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, 0, errors.New("linalg: SimpleOLS requires at least two points")
	}
	design := make([][]float64, len(x))
	for i, v := range x {
		design[i] = []float64{1, v}
	}
	res, err := OLS(design, y)
	if err != nil {
		return 0, 0, err
	}
	return res.Coef[0], res.Coef[1], nil
}

// ScaleThroughOrigin returns the c minimising ‖y − c·x‖₂, i.e. the least-
// squares proportionality constant, together with an error when x is all
// zeros. This is the estimator used for the paper's population rescaling
// factor C (Fig. 3).
func ScaleThroughOrigin(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("linalg: ScaleThroughOrigin length mismatch: %d vs %d", len(x), len(y))
	}
	var xy, xx float64
	for i := range x {
		xy += x[i] * y[i]
		xx += x[i] * x[i]
	}
	if xx == 0 || math.IsNaN(xx) {
		return 0, errors.New("linalg: ScaleThroughOrigin needs a nonzero x vector")
	}
	return xy / xx, nil
}
