package obs

import (
	"math"
	"sync/atomic"
)

// latencyBuckets is the shared bucket layout for every latency
// histogram (DESIGN.md §12): roughly ×3 steps from 100µs to 60s, wide
// enough that a cold multi-second scan and a 3ms warm bucket fold land
// in distinct buckets, small enough (18 buckets) that one histogram is
// ~200 bytes of atomics.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// Histogram is a fixed-bucket distribution. Observe is wait-free and
// allocation-free: one bucket search over a small immutable bounds
// slice, one atomic bucket increment, one atomic count increment, and a
// CAS loop folding the value into the float sum.
type Histogram struct {
	bounds []float64      // ascending upper bounds; bucket i counts v <= bounds[i]
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = latencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records v (in the bounds' unit — seconds for latencyBuckets).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// countSum returns the total observation count and value sum.
func (h *Histogram) countSum() (int64, float64) {
	return h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing the target rank. Values in the +Inf
// overflow bucket report the largest finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCounts returns the per-bucket (non-cumulative) counts; the
// exposition writer cumulates them.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
