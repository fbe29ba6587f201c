package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson product-moment correlation coefficient between
// x and y. Both slices must have the same length n >= 2 and nonzero
// variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson length mismatch: %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("stats: Pearson requires at least 2 pairs, got %d", n)
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: Pearson undefined for constant input")
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against rounding pushing |r| infinitesimally above 1.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// CorrelationTest is the result of a correlation significance test.
type CorrelationTest struct {
	R  float64 // correlation coefficient
	T  float64 // t statistic, r·sqrt((n−2)/(1−r²))
	DF float64 // degrees of freedom, n−2
	P  float64 // two-tailed p-value under H0: ρ = 0
	N  int     // sample size
}

// PearsonTest computes the Pearson correlation together with its two-tailed
// p-value under the null hypothesis of zero correlation, exactly as the
// paper reports for Fig. 3 (r = 0.816, p = 2.06e−15 on 60 samples).
func PearsonTest(x, y []float64) (*CorrelationTest, error) {
	if len(x) < 3 {
		return nil, fmt.Errorf("stats: PearsonTest requires at least 3 pairs, got %d", len(x))
	}
	r, err := Pearson(x, y)
	if err != nil {
		return nil, err
	}
	n := len(x)
	df := float64(n - 2)
	var t, p float64
	if 1-r*r <= 0 {
		t = math.Inf(sign(r))
		p = 0
	} else {
		t = r * math.Sqrt(df/(1-r*r))
		p, err = studentTTwoTailedP(t, df)
		if err != nil {
			return nil, err
		}
	}
	return &CorrelationTest{R: r, T: t, DF: df, P: p, N: n}, nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}
