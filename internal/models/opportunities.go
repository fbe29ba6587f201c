package models

import (
	"fmt"
	"math"
)

// InterveningOpportunities is Schneider's intervening-opportunities model,
// added as an extension baseline beyond the paper's two models (the paper
// positions Radiation as the parameter-free heir of this family):
//
//	P_ij ∝ C · [exp(−L·s_ij) − exp(−L·(s_ij + n_j))]
//
// where s_ij is the same intervening population used by Radiation and L is
// a per-dataset rate fitted by one-dimensional least squares in log space
// (golden-section search), with C the geometric-mean offset.
type InterveningOpportunities struct {
	C      float64
	L      float64
	fitted bool
}

// Name implements Model.
func (o *InterveningOpportunities) Name() string { return "Intervening Opp." }

// kernel evaluates the structural part for a given L.
func (o *InterveningOpportunities) kernelAt(od *OD, i, j int, l float64) float64 {
	if od.Pop[i] <= 0 || od.Pop[j] <= 0 {
		return 0
	}
	s := od.S[i][j]
	v := math.Exp(-l*s) - math.Exp(-l*(s+od.Pop[j]))
	if v < 0 {
		return 0
	}
	return v
}

// Fit implements Model: golden-section search on L minimising the log-space
// residual sum of squares, then a closed-form C.
func (o *InterveningOpportunities) Fit(od *OD) error {
	is, js := od.positivePairs()
	if len(is) < 3 {
		return fmt.Errorf("models: intervening opportunities needs >= 3 positive pairs, got %d: %w", len(is), ErrInsufficientData)
	}
	// Scale-aware bracket for L: the kernel saturates when L·s ~ 1, so
	// bracket around the reciprocal of the typical intervening population.
	var sSum float64
	var sCount int
	for k := range is {
		if s := od.S[is[k]][js[k]]; s > 0 {
			sSum += s
			sCount++
		}
	}
	typical := 1.0
	if sCount > 0 {
		typical = sSum / float64(sCount)
	}
	if typical <= 0 {
		typical = 1
	}
	lo := 1e-4 / typical
	hi := 1e3 / typical

	loss := func(l float64) float64 {
		var sum, sumSq float64
		var n int
		for k := range is {
			i, j := is[k], js[k]
			kv := o.kernelAt(od, i, j, l)
			if kv <= 0 {
				// Heavy penalty: a usable L must give positive kernels.
				return math.Inf(1)
			}
			r := math.Log10(od.Flow[i][j]) - math.Log10(kv)
			sum += r
			sumSq += r * r
			n++
		}
		// RSS after removing the optimal constant offset.
		mean := sum / float64(n)
		return sumSq - float64(n)*mean*mean
	}
	l, err := goldenSection(loss, lo, hi, 200)
	if err != nil {
		return fmt.Errorf("models: intervening opportunities fit: %w", err)
	}
	// Closed-form C at the chosen L (geometric-mean offset).
	var sum float64
	var n int
	for k := range is {
		i, j := is[k], js[k]
		kv := o.kernelAt(od, i, j, l)
		if kv <= 0 {
			continue
		}
		sum += math.Log10(od.Flow[i][j]) - math.Log10(kv)
		n++
	}
	if n < 3 {
		return fmt.Errorf("models: intervening opportunities: only %d pairs with positive kernel at fitted L: %w", n, ErrInsufficientData)
	}
	o.L = l
	o.C = math.Pow(10, sum/float64(n))
	o.fitted = true
	return nil
}

// Predict implements Model.
func (o *InterveningOpportunities) Predict(od *OD, i, j int) (float64, error) {
	if !o.fitted {
		return 0, errNotFitted
	}
	if i == j {
		return 0, fmt.Errorf("models: intervening opportunities predict: self-pair %d", i)
	}
	return o.C * o.kernelAt(od, i, j, o.L), nil
}

// goldenSection minimises f on [lo, hi] using golden-section search in log
// space (the bracket spans orders of magnitude), returning the argmin.
func goldenSection(f func(float64) float64, lo, hi float64, iters int) (float64, error) {
	if !(lo > 0) || !(hi > lo) {
		return 0, fmt.Errorf("models: golden section requires 0 < lo < hi, got [%v, %v]", lo, hi)
	}
	const phi = 0.6180339887498949 // (sqrt(5)-1)/2
	a, b := math.Log(lo), math.Log(hi)
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(math.Exp(c)), f(math.Exp(d))
	for i := 0; i < iters && math.Abs(b-a) > 1e-10; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(math.Exp(c))
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(math.Exp(d))
		}
	}
	x := math.Exp((a + b) / 2)
	if math.IsInf(f(x), 1) {
		return 0, fmt.Errorf("models: golden section found no feasible point")
	}
	return x, nil
}

// AllExtended returns the paper's three models plus the intervening-
// opportunities extension baseline.
func AllExtended() []Model {
	return append(All(), &InterveningOpportunities{})
}
