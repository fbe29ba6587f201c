// Package obs is the dependency-free observability layer every runtime
// component shares (DESIGN.md §12): a metrics registry of atomic
// counters, gauges and fixed-bucket latency histograms with Prometheus
// text exposition, plus a lightweight request-scoped span tracer whose
// IDs propagate across coordinator→shard HTTP hops.
//
// Two registries exist in practice. Def is the process-global registry
// that package-level instrumentation (ingest counters, WAL fsync
// timings, lane delivery counters, …) registers on at init; its values
// are cumulative over the process, exactly like standard Prometheus
// client counters. Service layers may additionally build private
// registries of GaugeFuncs over per-instance accessors — mobserve's
// /healthz reads one such registry in a single Snapshot pass so its
// numbers are mutually coherent.
//
// Hot-path cost: a counter add is one atomic add; a histogram
// observation is a branch-free bucket search plus three atomic
// operations; neither allocates. The binary-batch ingest path therefore
// stays 0 allocs/op per record with instrumentation on (gated by
// mobbench -compare against BenchmarkIngestBatch).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as emitted in Prometheus # TYPE headers.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric. The zero value
// is usable, but counters obtained from a Registry render in /metrics.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error; they would break
// Prometheus rate() — callers never pass them).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one labelled instance inside a family.
type series struct {
	labels string // rendered `k="v",…` (no braces), "" for unlabelled
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups every labelled series of one metric name under its type
// and help text.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          []*series
	byLabel         map[string]*series
}

// Registry holds metric families. All methods are safe for concurrent
// use; metric reads (counter adds, histogram observations) never take
// the registry lock.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Def is the process-global registry package-level instrumentation
// registers on.
var Def = NewRegistry()

// renderLabels turns k,v pairs into the canonical `k="v",…` form. Label
// values are escaped per the exposition format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// familyFor returns (creating if needed) the family for name, checking
// the type stays consistent — one name registered as both counter and
// gauge is a programming error the process should not limp past.
func (r *Registry) familyFor(name, help, typ string) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.fams[name]
		if f == nil {
			f = &family{name: name, help: help, typ: typ, byLabel: map[string]*series{}}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// seriesFor returns the series for name and label pairs in a family of
// type typ, creating it on first use, and under the family lock lets set
// fill a new series (fresh true) or re-bind an existing one.
func (r *Registry) seriesFor(name, help, typ string, labels []string, set func(s *series, fresh bool)) *series {
	f := r.familyFor(name, help, typ)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byLabel[ls]
	if !ok {
		s = &series{labels: ls}
		f.series = append(f.series, s)
		f.byLabel[ls] = s
	}
	set(s, !ok)
	return s
}

// Counter returns the counter for name (+ optional k,v label pairs),
// creating it on first use. Re-registration returns the same counter,
// so package-level vars and per-instance components can share series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.seriesFor(name, help, typeCounter, labels, func(s *series, fresh bool) {
		if fresh {
			s.c = &Counter{}
		}
	}).c
}

// Gauge returns the gauge for name (+ optional label pairs), creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.seriesFor(name, help, typeGauge, labels, func(s *series, fresh bool) {
		if fresh {
			s.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a gauge whose value is computed by fn at read
// time — the bridge from existing per-instance accessors (store counts,
// queue depths) into the registry without double bookkeeping.
// Re-registering the same name+labels replaces fn (a restarted
// component re-binds its accessor).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.seriesFor(name, help, typeGauge, labels, func(s *series, _ bool) { s.gf, s.g = fn, nil })
}

// Histogram returns the histogram for name (+ optional label pairs),
// creating it with the given upper bounds on first use (nil selects
// latencyBuckets). Bounds must be ascending; a +Inf overflow bucket is
// implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.seriesFor(name, help, typeHistogram, labels, func(s *series, fresh bool) {
		if fresh {
			s.h = newHistogram(bounds)
		}
	}).h
}

// Snapshot is one coherent pass over a registry: every series read
// once, keyed by name plus rendered labels (histograms contribute
// name_count and name_sum). Callers that assemble multi-field reports
// (mobserve's /healthz) read one Snapshot instead of re-reading each
// accessor at a different instant.
type Snapshot map[string]float64

// Value returns the snapshot value for the full series key ("" labels →
// bare name; labelled → name{k="v"}). Missing keys read as 0.
func (s Snapshot) Value(key string) float64 { return s[key] }

// Int returns the snapshot value truncated to int64.
func (s Snapshot) Int(key string) int64 { return int64(s[key]) }

// Snapshot reads every series in one pass.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		for _, s := range series {
			key := f.name
			if s.labels != "" {
				key = f.name + "{" + s.labels + "}"
			}
			switch {
			case s.c != nil:
				out[key] = float64(s.c.Value())
			case s.gf != nil:
				out[key] = s.gf()
			case s.g != nil:
				out[key] = s.g.Value()
			case s.h != nil:
				n, sum := s.h.countSum()
				out[key+"_count"] = float64(n)
				out[key+"_sum"] = sum
			}
		}
	}
	return out
}

// sortedFamilies returns the families in name order (exposition and
// tests want deterministic output).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
