package obs

import (
	"context"
	"testing"
	"time"
)

func TestTraceStages(t *testing.T) {
	tr := NewTrace("")
	if len(tr.ID) != 16 {
		t.Fatalf("generated ID %q, want 16 hex digits", tr.ID)
	}
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	tr.addStage("fold", time.Since(t0))
	tr.addStage("merge", 5*time.Millisecond)
	st := tr.Stages()
	if len(st) != 2 || st[0].Name != "fold" || st[1].Name != "merge" {
		t.Fatalf("stages = %+v", st)
	}
	if st[0].D <= 0 || st[0].Ms <= 0 {
		t.Fatalf("fold stage not timed: %+v", st[0])
	}
	if st[1].Ms != 5 {
		t.Fatalf("merge ms = %v, want 5", st[1].Ms)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.addStage("y", time.Second)
	if tr.Stages() != nil {
		t.Fatal("nil trace recorded something")
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("abc123")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if TraceID(ctx) != "abc123" {
		t.Fatalf("TraceID = %q", TraceID(ctx))
	}
	if TraceFrom(context.Background()) != nil || TraceID(context.Background()) != "" {
		t.Fatal("empty context produced a trace")
	}
}
