package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int64, standalone bool) span {
	return span{ID: id, Parent: parent, Request: 1, Name: name, StartNs: start, EndNs: end, Standalone: standalone}
}

// A request of 100 with two in-place children covering 30 and 50, the
// second of which did two things inside that could only be timed as
// standalone repeats of 20 and 15, one of them again holding a repeat
// of 5.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(0, -1, "ingest", 0, 100, false),
		sp(1, 0, "decode", 10, 40, false),
		sp(2, 0, "ingestor", 40, 90, false),
		sp(3, 2, "append", 200, 220, true),
		sp(4, 2, "ring", 220, 235, true),
		sp(5, 4, "map", 240, 245, true),
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"ingest":   {1, 100, 20},
		"decode":   {1, 30, 30},
		"ingestor": {1, 50, 15}, // 50 - 20 - 15
		"append":   {1, 20, 20},
		"ring":     {1, 15, 10}, // 15 - 5
		"map":      {1, 5, 5},
	} {
		if got[name] != want {
			t.Errorf("%s = %+v, want %+v", name, got[name], want)
		}
	}
	// Everything below the request sums to what the request did not keep.
	attributed, composed := attribution(spans)
	if attributed != 80 || composed != 100 {
		t.Errorf("attribution = %v of %v, want 80 of 100", attributed, composed)
	}
}

// In-place children that overlap (a scatter to two nodes) cover their
// union, not their sum; a repeat that ran slower than the original
// leaves a self time of zero, not a negative one; a span timed outside
// any request claims none of a request's wall.
func TestSelfTimesOverlapClampAndOneOffs(t *testing.T) {
	spans := []span{
		sp(0, -1, "query", 0, 100, false),
		sp(1, 0, "node", 10, 60, false),
		sp(2, 0, "node", 30, 80, false),
		sp(3, 0, "spill", 90, 130, false), // clipped to the parent's end
		sp(4, -1, "query", 200, 210, false),
		sp(5, 4, "fold", 300, 330, true),
		sp(6, -1, "scan", 400, 450, true),
	}
	got := selfTimes(spans)
	if q := got["query"]; q.Calls != 2 || q.Inclusive != 110 || q.Self != 20 { // 100-70-10, and max(10-30, 0)
		t.Errorf("query = %+v, want 2 calls, 110 inclusive, 20 self", q)
	}
	attributed, composed := attribution(spans)
	if want := time.Duration(50 + 50 + 40 + 30); attributed != want || composed != 110 {
		t.Errorf("attribution = %v of %v, want %v of 110", attributed, composed, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.nextRequest()
	id := tr.begin("x", -1, false)
	tr.end(id, "y")
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
	live := newTracer()
	live.nextRequest()
	a := live.begin("lookup", -1, false)
	live.end(a, "lookup_hit")
	if len(live.spans) != 1 || live.spans[0].Name != "lookup_hit" || live.spans[0].Request != 1 ||
		live.spans[0].EndNs < live.spans[0].StartNs {
		t.Errorf("spans = %+v", live.spans)
	}
}
