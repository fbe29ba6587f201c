package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// samplePowerLaw draws n continuous power-law variates with the given alpha
// and xmin via inverse-CDF sampling.
func samplePowerLaw(rng *rand.Rand, n int, alpha, xmin float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		xs[i] = xmin * math.Pow(1-u, -1/(alpha-1))
	}
	return xs
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for _, alpha := range []float64{1.8, 2.2, 3.0} {
		xs := samplePowerLaw(rng, 20000, alpha, 1)
		fit, err := FitPowerLaw(xs, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Alpha-alpha) > 0.06 {
			t.Errorf("alpha=%v: fitted %v", alpha, fit.Alpha)
		}
		if fit.N != len(xs) {
			t.Errorf("tail size %d, want %d", fit.N, len(xs))
		}
		if fit.KS > 0.02 {
			t.Errorf("KS = %v too large for a true power law", fit.KS)
		}
	}
}

func TestFitPowerLawTailOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 3))
	xs := samplePowerLaw(rng, 10000, 2.5, 5)
	// Pollute below the cutoff; fitting from xmin=5 must ignore it.
	for i := 0; i < 3000; i++ {
		xs = append(xs, rng.Float64()*4)
	}
	fit, err := FitPowerLaw(xs, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 10000 {
		t.Errorf("tail size %d, want 10000", fit.N)
	}
	if math.Abs(fit.Alpha-2.5) > 0.08 {
		t.Errorf("alpha = %v, want ~2.5", fit.Alpha)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2, 3}, 0, false); err == nil {
		t.Error("xmin=0 should fail")
	}
	if _, err := FitPowerLaw([]float64{1}, 1, false); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := FitPowerLaw([]float64{2, 2, 2}, 2, false); err == nil {
		t.Error("all-at-xmin degenerate tail should fail")
	}
}

func TestFitPowerLawDiscreteCorrection(t *testing.T) {
	// The discrete correction shifts the denominator; for data well above
	// xmin the two estimates must be close but not identical.
	rng := rand.New(rand.NewPCG(9, 1))
	xs := samplePowerLaw(rng, 5000, 2.0, 10)
	for i := range xs {
		xs[i] = math.Round(xs[i])
	}
	cont, err := FitPowerLaw(xs, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := FitPowerLaw(xs, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Alpha == disc.Alpha {
		t.Error("discrete and continuous estimates should differ")
	}
	if math.Abs(cont.Alpha-disc.Alpha) > 0.3 {
		t.Errorf("estimates too far apart: %v vs %v", cont.Alpha, disc.Alpha)
	}
}

func TestPowerLawKSDetectsMisfit(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 33))
	// Exponential data is not a power law: the KS distance at any alpha
	// should be clearly worse than for true power-law data.
	exp := make([]float64, 5000)
	for i := range exp {
		exp[i] = 1 + rng.ExpFloat64()
	}
	fitExp, err := FitPowerLaw(exp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	pl := samplePowerLaw(rng, 5000, fitExp.Alpha, 1)
	fitPL, err := FitPowerLaw(pl, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if fitExp.KS < fitPL.KS {
		t.Errorf("KS should flag exponential data: exp=%v pl=%v", fitExp.KS, fitPL.KS)
	}
}
