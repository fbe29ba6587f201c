package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing series in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of v by the
// nearest-rank rule: the smallest sample with at least p % of the
// samples at or below it. NaN for an empty series.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 10000 at 9990 although the
// product is a hair above it in floating point.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// median is the mean of the two middle samples for even counts.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, which is the tail a series
// of this size can support; ok is false below 20 samples, where not even
// the median has ten beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-rank(c, n) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), which is the spread rule of the benchmark contract. It needs
// at least two samples.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(q2)
}
