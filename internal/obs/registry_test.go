package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same series.
	if r.Counter("t_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("t_gauge", "help")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}

	v := 41.0
	r.GaugeFunc("t_fn", "help", func() float64 { return v })
	v = 42
	if got := r.Snapshot().Value("t_fn"); got != 42 {
		t.Fatalf("gaugefunc snapshot = %v, want 42", got)
	}
}

func TestLabelledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lane_total", "h", "node", "n1")
	b := r.Counter("lane_total", "h", "node", "n2")
	if a == b {
		t.Fatal("distinct labels shared a series")
	}
	a.Add(3)
	b.Add(9)
	snap := r.Snapshot()
	if snap.Int(`lane_total{node="n1"}`) != 3 || snap.Int(`lane_total{node="n2"}`) != 9 {
		t.Fatalf("labelled snapshot wrong: %v", snap)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as counter and gauge did not panic")
		}
	}()
	r.Gauge("dual", "h")
}

func TestSnapshotHistogramKeys(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", nil)
	h.Observe(0.002)
	h.Observe(0.004)
	snap := r.Snapshot()
	if snap.Value("lat_seconds_count") != 2 {
		t.Fatalf("histogram count = %v, want 2", snap.Value("lat_seconds_count"))
	}
	if got := snap.Value("lat_seconds_sum"); got < 0.0059 || got > 0.0061 {
		t.Fatalf("histogram sum = %v, want ~0.006", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(nil)
	// 90 fast observations, 10 slow: p50 must land in the fast bucket,
	// p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(0.002)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.4)
	}
	if p50 := h.Quantile(0.50); p50 > 0.0025 {
		t.Fatalf("p50 = %v, want <= 0.0025", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.25 || p99 > 0.5 {
		t.Fatalf("p99 = %v, want in (0.25, 0.5]", p99)
	}
	if q := h.Quantile(0.95); q < 0.002 {
		t.Fatalf("p95 = %v, want >= 0.002", q)
	}
	eh := newHistogram(nil)
	if got := eh.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.Observe(5) // beyond every bound -> +Inf bucket
	n, sum := h.countSum()
	if n != 1 || sum != 5 {
		t.Fatalf("count,sum = %d,%v want 1,5", n, sum)
	}
	if got := h.Quantile(0.99); got != 0.01 {
		t.Fatalf("overflow quantile = %v, want largest finite bound 0.01", got)
	}
}

// TestRegistryConcurrency hammers registration, writes and snapshot
// reads together; run with -race this is the registry's data-race
// proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "h", "w", fmt.Sprint(w%2))
			h := r.Histogram("conc_seconds", "h", nil)
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	total := snap.Int(`conc_total{w="0"}`) + snap.Int(`conc_total{w="1"}`)
	if total != 8*2000 {
		t.Fatalf("concurrent counter total = %d, want %d", total, 8*2000)
	}
	if snap.Value("conc_seconds_count") != 8*2000 {
		t.Fatalf("concurrent histogram count = %v, want %d", snap.Value("conc_seconds_count"), 8*2000)
	}
}
