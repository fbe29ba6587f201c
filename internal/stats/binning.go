package stats

import (
	"fmt"
	"math"
)

// Bin is one bin of a histogram or binned scatter series.
type Bin struct {
	Lo, Hi  float64 // bin edges, Lo inclusive, Hi exclusive (last bin inclusive)
	Center  float64 // representative x (geometric centre for log bins)
	Count   int     // number of observations in the bin
	Density float64 // probability density: share/width
	MeanY   float64 // mean of the paired y values (binned scatter only)
}

// LogHistogram bins the strictly positive values of xs into logarithmically
// spaced bins (binsPerDecade bins per factor of ten) and returns normalised
// densities. This is the estimator behind the log-log distribution plots of
// Fig. 2: with heavy-tailed data, equal-width bins starve the tail while
// log-spaced bins keep per-bin counts meaningful across many decades.
// Non-positive values are skipped and reported via the skipped count.
func LogHistogram(xs []float64, binsPerDecade int) (bins []Bin, skipped int, err error) {
	if binsPerDecade < 1 {
		return nil, 0, fmt.Errorf("stats: LogHistogram requires binsPerDecade >= 1, got %d", binsPerDecade)
	}
	pos := make([]float64, 0, len(xs))
	for _, v := range xs {
		if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			pos = append(pos, v)
		} else {
			skipped++
		}
	}
	if len(pos) == 0 {
		return nil, skipped, errEmpty
	}
	min, max, _ := minMax(pos)
	loExp := math.Floor(math.Log10(min) * float64(binsPerDecade))
	hiExp := math.Ceil(math.Log10(max) * float64(binsPerDecade))
	nbins := int(hiExp-loExp) + 1
	step := 1 / float64(binsPerDecade)
	bins = make([]Bin, nbins)
	for i := range bins {
		bins[i].Lo = math.Pow(10, (loExp+float64(i))*step)
		bins[i].Hi = math.Pow(10, (loExp+float64(i)+1)*step)
		bins[i].Center = math.Sqrt(bins[i].Lo * bins[i].Hi)
	}
	for _, v := range pos {
		i := int(math.Floor(math.Log10(v)*float64(binsPerDecade)) - loExp)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		bins[i].Count++
	}
	n := float64(len(pos))
	for i := range bins {
		width := bins[i].Hi - bins[i].Lo
		bins[i].Density = float64(bins[i].Count) / (n * width)
	}
	return bins, skipped, nil
}

// LogBinScatter groups the (x, y) pairs into logarithmic bins over x and
// returns, per non-empty bin, the geometric bin centre and the mean y. This
// produces the red averaged dots of Fig. 4. Pairs with non-positive x are
// skipped.
func LogBinScatter(x, y []float64, binsPerDecade int) ([]Bin, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: LogBinScatter length mismatch: %d vs %d", len(x), len(y))
	}
	if binsPerDecade < 1 {
		return nil, fmt.Errorf("stats: LogBinScatter requires binsPerDecade >= 1, got %d", binsPerDecade)
	}
	type acc struct {
		sumY  float64
		count int
	}
	accs := map[int]*acc{}
	factor := float64(binsPerDecade)
	for i := range x {
		if x[i] <= 0 || math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		k := int(math.Floor(math.Log10(x[i]) * factor))
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
		}
		a.sumY += y[i]
		a.count++
	}
	if len(accs) == 0 {
		return nil, errEmpty
	}
	keys := make([]int, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sortInts(keys)
	step := 1 / factor
	bins := make([]Bin, 0, len(keys))
	for _, k := range keys {
		a := accs[k]
		lo := math.Pow(10, float64(k)*step)
		hi := math.Pow(10, float64(k+1)*step)
		bins = append(bins, Bin{
			Lo:     lo,
			Hi:     hi,
			Center: math.Sqrt(lo * hi),
			Count:  a.count,
			MeanY:  a.sumY / float64(a.count),
		})
	}
	return bins, nil
}

func sortInts(xs []int) {
	// Insertion sort: bin key sets are tiny (tens of entries).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
