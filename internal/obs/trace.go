package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader carries the request trace ID across coordinator→shard
// HTTP hops. mobserve reads it from incoming requests (generating a
// fresh ID when absent), echoes it on responses, and HTTPShard forwards
// it on every shard call so one query's fan-out shares one ID.
const TraceHeader = "X-Geomob-Trace"

// StageTiming is one named span inside a trace.
type StageTiming struct {
	Name string        `json:"stage"`
	D    time.Duration `json:"-"`
	Ms   float64       `json:"ms"`
}

// Trace is a request-scoped span collector. All methods are nil-safe so
// instrumented code paths never branch on whether tracing is active —
// a nil *Trace records nothing at the cost of a nil check.
type Trace struct {
	ID    string
	start time.Time

	mu     sync.Mutex
	stages []StageTiming
}

// NewTrace starts a trace. An empty id generates a random 16-hex-digit
// one.
func NewTrace(id string) *Trace {
	if id == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			id = hex.EncodeToString(b[:])
		} else {
			id = "trace-rand-unavailable"
		}
	}
	t := &Trace{ID: id}
	t.start = time.Now() // after the allocation: a clock opened next starts right behind it
	return t
}

// addStage records a stage duration (Stage.Book is the usual caller).
func (t *Trace) addStage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, StageTiming{Name: name, D: d, Ms: float64(d) / float64(time.Millisecond)})
	t.mu.Unlock()
}

// Stages returns a copy of the recorded stages in record order.
func (t *Trace) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageTiming(nil), t.stages...)
}

// Total is the wall time since the trace started.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

type traceKey struct{}

// WithTrace attaches tr to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// TraceID returns the attached trace's ID, or "".
func TraceID(ctx context.Context) string {
	if tr := TraceFrom(ctx); tr != nil {
		return tr.ID
	}
	return ""
}
