package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share its Request number; Parent is the ID of the span that caused
// this one, or -1 for the request itself.
//
// A Standalone span was not timed where it happens. Some layer calls are
// only reachable inside another layer's public function (the store
// append and the ring append inside Ingestor.Flush, the area resolve
// inside the ring append), so the harness repeats that call on its own,
// on the same columns, right after the parent returned, and books it as
// the parent's child. A standalone span therefore lies outside its
// parent's interval and outside the request's wall time.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Request    int    `json:"request"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	Standalone bool   `json:"standalone,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer records spans in memory. A nil tracer records nothing, which is
// how the untraced twin of a replay runs the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	request int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRequest starts a new request and returns its number.
func (t *tracer) nextRequest() {
	if t != nil {
		t.request++
	}
}

// begin opens a span under parent (-1: none) and returns its ID.
func (t *tracer) begin(name string, parent int, standalone bool) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name,
		Standalone: standalone, StartNs: int64(time.Since(t.t0))})
	return id
}

// end closes a span; rename, when not empty, replaces the name given at
// begin (a cache lookup only knows afterwards whether it hit).
func (t *tracer) end(id int, rename string) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	if rename != "" {
		t.spans[id].Name = rename
	}
}

// layerTime sums, per span name, the calls, their inclusive time and
// their self time.
type layerTime struct {
	Calls     int           `json:"calls"`
	Inclusive time.Duration `json:"inclusive_ns"`
	Self      time.Duration `json:"self_ns"`
}

// attribution returns the wall time of the request spans and the part of
// it that layer spans below them account for with their self times.
func attribution(spans []span) (attributed, composed time.Duration) {
	layers := selfTimes(spans)
	for name, lt := range layers {
		if name == "ingest" || name == "query" {
			composed += lt.Inclusive
			continue
		}
		attributed += lt.Self
	}
	// Spans timed outside any request (Parent -1, Standalone) are not
	// part of a request's wall and claim none of it.
	for _, s := range spans {
		if s.Parent == -1 && s.Standalone {
			attributed -= s.dur()
		}
	}
	return attributed, composed
}

// selfTimes computes each span's self time — its duration minus the part
// of its interval that in-place children cover, minus the whole duration
// of its standalone children — and sums by name. A self time that the
// standalone subtraction would push below zero (the repeat ran slower
// than the original) counts as zero.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		self := s.dur()
		var inPlace []span
		for _, c := range children[s.ID] {
			if c.Standalone {
				self -= c.dur()
			} else {
				inPlace = append(inPlace, c)
			}
		}
		self -= covered(inPlace, s.StartNs, s.EndNs)
		lt := out[s.Name]
		lt.Calls++
		lt.Inclusive += s.dur()
		lt.Self += max(self, 0)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	var total, reach int64 = 0, lo
	for _, s := range spans {
		a, b := max(s.StartNs, reach), min(s.EndNs, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return time.Duration(total)
}

// traceFile is what a traced run writes at exit: the spans of the two
// in-process compositions (`mobserve -live`, and a coordinator over two
// shards at R=2) and their per-layer sums.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Machine  machine     `json:"machine"`
	Live     engineTrace `json:"live"`
	Cluster  engineTrace `json:"cluster"`
}

type engineTrace struct {
	Layers map[string]layerTime `json:"layers"`
	Spans  []span               `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
