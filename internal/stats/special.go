package stats

import (
	"fmt"
	"math"
)

// Special functions needed for significance testing. The implementations
// follow the classic Numerical Recipes formulations (Lentz's modified
// continued fraction for the incomplete beta), using math.Lgamma from the
// standard library for the log-gamma terms.

// regIncompleteBeta returns the regularised incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1].
func regIncompleteBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("stats: incomplete beta requires a,b > 0, got a=%v b=%v", a, b)
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		return 0, fmt.Errorf("stats: incomplete beta requires x in [0,1], got %v", x)
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 {
		return 1, nil
	}
	// Prefactor: x^a (1-x)^b / (a B(a,b)).
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	front := math.Exp(lgAB - lgA - lgB + a*math.Log(x) + b*math.Log(1-x))
	// Use the continued fraction directly when x < (a+1)/(a+b+2); otherwise
	// use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) for faster convergence.
	if x < (a+1)/(a+b+2) {
		cf, err := betaContinuedFraction(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaContinuedFraction(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	return 1 - front*cf/b, nil
}

// betaContinuedFraction evaluates the continued fraction for the incomplete
// beta function by the modified Lentz method.
func betaContinuedFraction(a, b, x float64) (float64, error) {
	const (
		maxIter = 500
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h, nil
		}
	}
	return 0, fmt.Errorf("stats: incomplete beta continued fraction failed to converge for a=%v b=%v x=%v", a, b, x)
}

// studentTTwoTailedP returns the two-tailed p-value P(|T| >= |t|) for
// Student's t distribution with df degrees of freedom.
func studentTTwoTailedP(t, df float64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: Student-t requires df > 0, got %v", df)
	}
	if math.IsNaN(t) {
		return 0, fmt.Errorf("stats: Student-t got NaN statistic")
	}
	if math.IsInf(t, 0) {
		return 0, nil
	}
	x := df / (df + t*t)
	ib, err := regIncompleteBeta(df/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	return ib, nil
}
