package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestLogHistogramConservesAndNormalises(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	xs := make([]float64, 5000)
	for i := range xs {
		// Heavy-tailed: x = u^(-1), spanning several decades.
		xs[i] = 1 / (rng.Float64() + 1e-4)
	}
	bins, skipped, err := LogHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d positive values", skipped)
	}
	total := 0
	var integral float64
	for _, b := range bins {
		total += b.Count
		integral += b.Density * (b.Hi - b.Lo)
		if b.Center < b.Lo || b.Center > b.Hi {
			t.Errorf("bin centre %v outside [%v,%v]", b.Center, b.Lo, b.Hi)
		}
	}
	if total != len(xs) {
		t.Errorf("counts sum to %d, want %d", total, len(xs))
	}
	if !almost(integral, 1, 1e-9) {
		t.Errorf("density integrates to %v", integral)
	}
	// Bin widths must grow geometrically.
	for i := 1; i < len(bins); i++ {
		if bins[i].Hi-bins[i].Lo <= bins[i-1].Hi-bins[i-1].Lo {
			t.Errorf("bin widths not increasing at %d", i)
		}
	}
}

func TestLogHistogramSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 10, 100, math.NaN(), math.Inf(1)}
	bins, skipped, err := LogHistogram(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Errorf("skipped = %d, want 4", skipped)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("kept %d, want 3", total)
	}
	if _, _, err := LogHistogram([]float64{-5}, 2); err == nil {
		t.Error("all-nonpositive input should fail")
	}
	if _, _, err := LogHistogram([]float64{1}, 0); err == nil {
		t.Error("zero binsPerDecade should fail")
	}
}

func TestLogBinScatterMeans(t *testing.T) {
	// Two decades; values in the same decade must average together.
	x := []float64{1, 2, 3, 10, 20, 90}
	y := []float64{10, 20, 30, 100, 200, 300}
	bins, err := LogBinScatter(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	if bins[0].Count != 3 || !almost(bins[0].MeanY, 20, 1e-12) {
		t.Errorf("decade 1: %+v", bins[0])
	}
	if bins[1].Count != 3 || !almost(bins[1].MeanY, 200, 1e-12) {
		t.Errorf("decade 2: %+v", bins[1])
	}
}

func TestLogBinScatterSkipsBadPairs(t *testing.T) {
	x := []float64{-1, 0, 5, math.NaN()}
	y := []float64{1, 1, 7, 1}
	bins, err := LogBinScatter(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 1 || bins[0].Count != 1 || bins[0].MeanY != 7 {
		t.Errorf("bins = %+v", bins)
	}
	if _, err := LogBinScatter([]float64{-1}, []float64{1}, 2); err == nil {
		t.Error("no valid pairs should fail")
	}
	if _, err := LogBinScatter([]float64{1, 2}, []float64{1}, 2); err == nil {
		t.Error("length mismatch should fail")
	}
}
