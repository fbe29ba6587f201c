package experiments

import (
	"context"
	"math"
	"testing"

	"geomob/internal/core"
	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/stats"
	"geomob/internal/synth"
)

// TestExactReductionsMatchOrderedFloat guards the four statistics whose
// arithmetic is order-independent by construction — the telescoped
// waiting-time mean and the fixed-point radius of gyration with its mean
// and median — against the formulas they replaced: float64 additions in
// stream order, which live on only here, as the reference. On the corpus
// `mobrepro -users 50000 -quick` reproduces the paper with, observed
// (tolerance): avg waiting hours 3.6e-14 relative (1e-12); per-user
// radius 1.2e-7 km (0.01 km — room for what the ordered sum leaves on a
// heavy user who does not move, mobility's TestStationaryUserHasNoRadius);
// median radius identical (0.01 km); mean radius 1.8e-13 relative (1e-6).
func TestExactReductionsMatchOrderedFloat(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(50000, 42, 43))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewStudy(core.SliceSource(tweets)).Execute(context.Background(),
		core.Request{Analyses: []core.Analysis{core.AnalysisStats}})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Stats

	var waitSum float64
	var waits int
	var radii []float64
	var sx, sy, sz float64
	n := 0
	flush := func() {
		norm2 := (sx*sx + sy*sy + sz*sz) / (float64(n) * float64(n))
		radii = append(radii, geo.EarthRadius/1000*math.Sqrt(1-math.Min(norm2, 1)))
		sx, sy, sz, n = 0, 0, 0, 0
	}
	for i, tw := range tweets {
		if i > 0 && tw.UserID == tweets[i-1].UserID {
			waitSum += float64(tw.TS-tweets[i-1].TS) / 1000
			waits++
		} else if i > 0 {
			flush()
		}
		x, y, z := mobility.UnitVec(tw.Point())
		sx, sy, sz, n = sx+x, sy+y, sz+z, n+1
	}
	flush()

	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	wantWait := waitSum / float64(waits) / 3600
	if d := rel(got.AvgWaitingHours, wantWait); d > 1e-12 {
		t.Errorf("AvgWaitingHours %v, ordered mean %v: relative difference %g", got.AvgWaitingHours, wantWait, d)
	} else {
		t.Logf("AvgWaitingHours %.17g vs ordered %.17g (relative %.2g)", got.AvgWaitingHours, wantWait, d)
	}
	if len(got.GyrationKM) != len(radii) {
		t.Fatalf("%d radii, reference has %d users", len(got.GyrationKM), len(radii))
	}
	var worst float64
	for u, r := range radii {
		worst = math.Max(worst, math.Abs(got.GyrationKM[u]-r))
	}
	if worst > 0.01 {
		t.Errorf("a user's radius differs from its ordered-sum radius by %g km", worst)
	}
	wantMedian, _ := stats.Median(radii)
	wantMean, _ := stats.Mean(radii)
	if d := math.Abs(got.MedianGyrationKM - wantMedian); d > 0.01 {
		t.Errorf("MedianGyrationKM %v, ordered %v", got.MedianGyrationKM, wantMedian)
	}
	if d := rel(got.MeanGyrationKM, wantMean); d > 1e-6 {
		t.Errorf("MeanGyrationKM %v, ordered %v: relative difference %g", got.MeanGyrationKM, wantMean, d)
	}
	t.Logf("per-user radius: max |Δ| %.3g km; median %.17g vs %.17g; mean %.17g vs %.17g (relative %.2g)",
		worst, got.MedianGyrationKM, wantMedian, got.MeanGyrationKM, wantMean, rel(got.MeanGyrationKM, wantMean))
}
