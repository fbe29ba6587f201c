package obs

import (
	"context"
	"time"
)

// Stage is one named stage of a request path and the histogram its
// durations feed.
type Stage struct {
	Name string
	Hist *Histogram
}

// Book records one duration of the stage on tr (nil records none) and in
// the stage's histogram, so the trace and the metric read one clock.
func (s Stage) Book(tr *Trace, d time.Duration) {
	tr.addStage(s.Name, d)
	s.Hist.Observe(d.Seconds())
}

// StageFamily returns one Stage per name, each feeding the series
// stage=name of the histogram family on r.
func StageFamily(r *Registry, family, help string, names ...string) []Stage {
	out := make([]Stage, len(names))
	for k, name := range names {
		out[k] = Stage{Name: name, Hist: r.Histogram(family, help, nil, "stage", name)}
	}
	return out
}

// Path is one request path's stages in trace order (DESIGN.md §12).
// Rest indexes the remainder stage: closing a request books to it the
// wall time no other stage claimed, so a request's stages sum to its
// wall time by construction. A stage books when it ends (a cache hit has
// no fold) and the remainder when the request closes. An Every path
// instead sums each stage over the request and books every stage once
// at close, in path order, at zero if it never ran: an ingest flushes
// any number of times but is one decode, store, resolve and ring.
type Path struct {
	Stages []Stage
	Rest   int
	Every  bool
}

// Stages is one request's stage clock over a Path. Begin and End are
// nil-safe, so a path's plain entry points pass nil and book nothing,
// reading no clock. One goroutine drives a request's clock; it is not
// safe for concurrent use.
type Stages struct {
	tr          *Trace
	path        *Path
	start, mark time.Time
	claimed     time.Duration
	d           []time.Duration // an Every path's sums
}

// Start opens one request's clock over p on tr (nil: histograms only),
// reading the clock once.
func (p *Path) Start(tr *Trace) *Stages {
	now := time.Now()
	s := &Stages{tr: tr, path: p, start: now, mark: now}
	if p.Every {
		s.d = make([]time.Duration, len(p.Stages))
	}
	return s
}

// Begin marks where the next stage starts; time since the last mark
// stays unclaimed, for the remainder.
func (s *Stages) Begin() {
	if s != nil {
		s.mark = time.Now()
	}
}

// End claims the time since the last mark for stage k and marks where
// the next stage starts: one clock reading per stage boundary.
func (s *Stages) End(k int) {
	if s == nil {
		return
	}
	now := time.Now()
	d := now.Sub(s.mark)
	s.mark = now
	s.claimed += d
	if s.path.Every {
		s.d[k] += d
		return
	}
	s.path.Stages[k].Book(s.tr, d)
}

// Claimed returns the wall time the stages have claimed so far: read
// before and after a run of stages, it times the run from the clock's
// own readings at its boundaries.
func (s *Stages) Claimed() time.Duration { return s.claimed }

// Close ends the request: the remainder stage takes the wall time since
// Start that no stage claimed. It returns the request's wall time up to
// that same reading, from the trace's start (the clock's own without a
// trace), so the stages sum to it less only the instant between the
// trace's start and the clock's.
func (s *Stages) Close() time.Duration {
	end := time.Now()
	rest := end.Sub(s.start) - s.claimed
	if !s.path.Every {
		s.path.Stages[s.path.Rest].Book(s.tr, rest)
	} else {
		s.d[s.path.Rest] = rest
		for k, st := range s.path.Stages {
			st.Book(s.tr, s.d[k])
		}
	}
	if s.tr == nil {
		return end.Sub(s.start)
	}
	return end.Sub(s.tr.start)
}

type stagesKey struct{}

// WithStages attaches a request's stage clock to ctx, for the path that
// books into it further down.
func WithStages(ctx context.Context, s *Stages) context.Context {
	return context.WithValue(ctx, stagesKey{}, s)
}

// StagesFrom returns the stage clock attached to ctx when it runs over p,
// or nil.
func StagesFrom(ctx context.Context, p *Path) *Stages {
	if s, _ := ctx.Value(stagesKey{}).(*Stages); s != nil && s.path == p {
		return s
	}
	return nil
}
