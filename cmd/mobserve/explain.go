// EXPLAIN ANALYZE for the /v1 query endpoints (DESIGN.md §13): with
// ?explain=1 the response carries an "explain" block — plan, bucket
// coverage, cache disposition, recovery provenance, per-stage timings,
// and in cluster mode the per-shard breakdown — alongside the result,
// which stays byte-identical to an unexplained request. The explain
// machinery only observes: the carrier on the context collects what the
// layers record, and the one extra computation (the ring's coverage
// walk) runs in counting-only dry mode.
package main

import (
	"context"
	"time"

	"geomob/internal/core"
	"geomob/internal/obs"
)

// explainBlock assembles the explain response block from the request
// plan, the trace's stage timings, the cache disposition the engine
// recorded into the carrier, and what the engine adds from there — the
// ring's dry coverage walk and recovery provenance, or the coordinator's
// topology and per-shard breakdown.
func (s *server) explainBlock(ctx context.Context, req core.Request, ex *obs.Explain) map[string]any {
	blk := map[string]any{}
	if tr := obs.TraceFrom(ctx); tr != nil {
		blk["trace_id"] = tr.ID
		if st := tr.Stages(); len(st) > 0 {
			blk["stages"] = st
		}
	}
	if info, err := core.PlanRequest(req); err == nil {
		plan := map[string]any{"analyses": info.Analyses}
		if len(info.Scales) > 0 {
			plan["scales"] = info.Scales
			plan["radius_m"] = info.ScaleRadius
		}
		win := map[string]any{"from": "unbounded", "to": "unbounded"}
		if !req.From.IsZero() {
			win["from"] = req.From.UTC().Format(time.RFC3339)
		}
		if !req.To.IsZero() {
			win["to"] = req.To.UTC().Format(time.RFC3339)
		}
		plan["window"] = win
		blk["plan"] = plan
	}
	recorded := ex.Sections()
	cacheSec, _ := recorded["cache"].(map[string]any)
	if cacheSec == nil {
		cacheSec = map[string]any{}
	}
	blk["cache"] = cacheSec
	s.eng.explain(req, recorded, blk)
	return blk
}
