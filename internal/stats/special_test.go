package stats

import (
	"math"
	"testing"
)

func TestRegIncompleteBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x float64
		want    float64
		tol     float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.3, 0.3, 1e-12},
		{1, 1, 0.75, 0.75, 1e-12},
		// I_x(2,2) = x²(3−2x).
		{2, 2, 0.5, 0.5, 1e-12},
		{2, 2, 0.25, 0.25 * 0.25 * (3 - 0.5), 1e-12},
		// I_x(1,b) = 1 − (1−x)^b.
		{1, 3, 0.2, 1 - math.Pow(0.8, 3), 1e-12},
		// Symmetry point.
		{5, 5, 0.5, 0.5, 1e-12},
		// Edge values.
		{3, 4, 0, 0, 0},
		{3, 4, 1, 1, 0},
		// Half-integer case occurring in the t-test: I_x(a, 1/2).
		// Reference computed by high-resolution midpoint quadrature of the
		// beta integral: I_0.9(14, 0.5) = 0.088670006487...
		{14, 0.5, 0.9, 0.0886700064877, 1e-9},
	}
	for _, c := range cases {
		got, err := regIncompleteBeta(c.a, c.b, c.x)
		if err != nil {
			t.Errorf("I_%v(%v,%v): %v", c.x, c.a, c.b, err)
			continue
		}
		if !almost(got, c.want, c.tol) {
			t.Errorf("I_%v(%v,%v) = %.15g, want %.15g", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncompleteBetaSymmetry(t *testing.T) {
	// I_x(a,b) + I_{1−x}(b,a) = 1.
	for _, a := range []float64{0.5, 1, 2.5, 10} {
		for _, b := range []float64{0.5, 1, 3, 7.5} {
			for _, x := range []float64{0.1, 0.3, 0.5, 0.8, 0.99} {
				i1, err1 := regIncompleteBeta(a, b, x)
				i2, err2 := regIncompleteBeta(b, a, 1-x)
				if err1 != nil || err2 != nil {
					t.Fatalf("a=%v b=%v x=%v: %v %v", a, b, x, err1, err2)
				}
				if !almost(i1+i2, 1, 1e-10) {
					t.Errorf("symmetry violated at a=%v b=%v x=%v: %v + %v", a, b, x, i1, i2)
				}
			}
		}
	}
}

func TestRegIncompleteBetaMonotonic(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v, err := regIncompleteBeta(3, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("not monotonic at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestRegIncompleteBetaErrors(t *testing.T) {
	if _, err := regIncompleteBeta(0, 1, 0.5); err == nil {
		t.Error("a=0 should fail")
	}
	if _, err := regIncompleteBeta(1, -1, 0.5); err == nil {
		t.Error("b<0 should fail")
	}
	if _, err := regIncompleteBeta(1, 1, -0.1); err == nil {
		t.Error("x<0 should fail")
	}
	if _, err := regIncompleteBeta(1, 1, 1.1); err == nil {
		t.Error("x>1 should fail")
	}
	if _, err := regIncompleteBeta(1, 1, math.NaN()); err == nil {
		t.Error("NaN x should fail")
	}
}

func TestStudentTTwoTailedP(t *testing.T) {
	// Closed forms: df=1 is the Cauchy distribution, p = 1 − 2·atan(|t|)/π;
	// df=2 gives p = 1 − |t|/sqrt(2+t²).
	for _, tv := range []float64{0, 0.5, 1.5, 3, 8} {
		p1, err := studentTTwoTailedP(tv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 - 2*math.Atan(tv)/math.Pi; !almost(p1, want, 1e-10) {
			t.Errorf("p(%v, 1) = %v, want %v", tv, p1, want)
		}
		p2, err := studentTTwoTailedP(tv, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 - tv/math.Sqrt(2+tv*tv); !almost(p2, want, 1e-10) {
			t.Errorf("p(%v, 2) = %v, want %v", tv, p2, want)
		}
	}
	// Large df approaches the normal distribution.
	if p, _ := studentTTwoTailedP(1.959963985, 100000); !almost(p, 0.05, 1e-4) {
		t.Errorf("p(1.96, 1e5) = %v, want 0.05", p)
	}
	// scipy.stats.t.sf(2.0, 10)*2 = 0.0733880348.
	p, err := studentTTwoTailedP(2.0, 10)
	if err != nil || !almost(p, 0.0733880348, 1e-8) {
		t.Errorf("p(2.0, 10) = %.10f, %v", p, err)
	}
	if p2, _ := studentTTwoTailedP(math.Inf(1), 5); p2 != 0 {
		t.Errorf("p at +inf should be 0, got %v", p2)
	}
}

func TestStudentTErrors(t *testing.T) {
	if _, err := studentTTwoTailedP(1, 0); err == nil {
		t.Error("df=0 should fail")
	}
	if _, err := studentTTwoTailedP(math.NaN(), 5); err == nil {
		t.Error("NaN t should fail")
	}
	if _, err := studentTTwoTailedP(1, -1); err == nil {
		t.Error("negative df should fail")
	}
}
