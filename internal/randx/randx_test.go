package randx

import (
	"math"
	"testing"
)

func TestNewDeterminism(t *testing.T) {
	a := New(1, 2)
	b := New(1, 2)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := New(1, 3)
	same := true
	a2 := New(1, 2)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	rng := New(3, 4)
	for _, alpha := range []float64{0.5, 1.0, 1.2, 2.5} {
		minSeen, maxSeen := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50000; i++ {
			v := BoundedPareto(rng, alpha, 60, 1e6)
			if v < 60 || v > 1e6 {
				t.Fatalf("alpha=%v: value %v outside bounds", alpha, v)
			}
			minSeen = math.Min(minSeen, v)
			maxSeen = math.Max(maxSeen, v)
		}
		// The sample should explore several decades of the support.
		if maxSeen/minSeen < 100 {
			t.Errorf("alpha=%v: span too narrow [%v, %v]", alpha, minSeen, maxSeen)
		}
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	// Smaller alpha must give a heavier tail (larger high quantiles).
	quantile99 := func(alpha float64) float64 {
		rng := New(7, 7)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = BoundedPareto(rng, alpha, 1, 1e8)
		}
		// Partial selection: just scan for the 99th percentile crudely.
		var count int
		threshold := 1e4
		for _, v := range xs {
			if v > threshold {
				count++
			}
		}
		return float64(count)
	}
	if quantile99(1.1) <= quantile99(2.5) {
		t.Error("alpha=1.1 should put more mass above 1e4 than alpha=2.5")
	}
}

func TestBoundedParetoPanics(t *testing.T) {
	rng := New(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("xmax < xmin should panic")
		}
	}()
	BoundedPareto(rng, 1.5, 10, 5)
}

func TestDiscretePowerLawDistribution(t *testing.T) {
	rng := New(5, 6)
	s := NewDiscretePowerLaw(2.0, 1, 1000)
	counts := map[int]int{}
	n := 300000
	for i := 0; i < n; i++ {
		k := s.Sample(rng)
		if k < 1 || k > 1000 {
			t.Fatalf("sample %d outside support", k)
		}
		counts[k]++
	}
	// P(1)/P(2) should be close to 2^alpha = 4.
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-4) > 0.3 {
		t.Errorf("P(1)/P(2) = %v, want ~4", ratio)
	}
	// The tail must actually be populated.
	var tail int
	for k, c := range counts {
		if k >= 100 {
			tail += c
		}
	}
	if tail == 0 {
		t.Error("no samples beyond k=100; tail starved")
	}
}

func TestDiscretePowerLawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("kmin=0 should panic")
		}
	}()
	NewDiscretePowerLaw(2, 0, 10)
}

func TestLogNormalMedian(t *testing.T) {
	rng := New(8, 9)
	n := 100000
	var below int
	for i := 0; i < n; i++ {
		if LogNormal(rng, math.Log(5), 0.7) < 5 {
			below++
		}
	}
	// The median of a lognormal is exp(mu) = 5.
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P(X < median) = %v, want ~0.5", frac)
	}
	if v := LogNormal(rng, 0, 0); v != 1 {
		t.Errorf("sigma=0 should be deterministic exp(mu), got %v", v)
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	rng := New(12, 13)
	for _, lambda := range []float64{0.5, 4, 30, 800} {
		n := 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(Poisson(rng, lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("lambda=%v: mean=%v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Errorf("lambda=%v: variance=%v", lambda, variance)
		}
	}
	if Poisson(rng, 0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
}

func TestWeightedChoice(t *testing.T) {
	w, err := NewWeightedChoice([]float64{1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	rng := New(20, 21)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceErrors(t *testing.T) {
	if _, err := NewWeightedChoice(nil); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := NewWeightedChoice([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
	if _, err := NewWeightedChoice([]float64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeightedChoice([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight should fail")
	}
}
