package core

// This file is the bridge between the streaming Study pipeline and
// external incremental aggregation layers (internal/live): PlanRequest
// exposes the execution plan a Request resolves to without building any
// spatial machinery, and AssembleFolded turns folded observer outputs
// into a Result through the one assembly path — Execute is Study.Fold
// then AssembleFolded — so a fold that reproduces the observer state
// bit-for-bit yields a bit-identical Result. See DESIGN.md §7 for the
// bucket-merge contract built on top.

import (
	"fmt"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/mobility"
)

// PlanInfo describes the execution plan a Request resolves to — the
// scales in plan order, the resolved radii, which observer families run
// and the normalised time window — without the cost of building the
// per-scale grid resolvers. External aggregators use it to fold exactly
// the state Execute would compute for the request.
type PlanInfo struct {
	// Analyses is the canonical analysis set (empty input expands to the
	// full study; flows are dropped when mobility subsumes them), in
	// analyses() order.
	Analyses []Analysis
	// Scales are the plan's scales in plan order (request order, deduped;
	// all three when the request named none). Empty for stats-only plans,
	// which build no per-scale machinery at all.
	Scales []census.Scale
	// ScaleRadius[i] is the resolved search radius ε for Scales[i]: the
	// request override, or the scale's paper default.
	ScaleRadius []float64
	// Stats, Extract and Count report which observer families the plan
	// runs: the trajectory statistics, the per-scale flow extractors and
	// the per-scale unique-user counters.
	Stats, Extract, Count bool
	// Metro500 reports whether the fixed ε = 0.5 km metropolitan variant
	// (Fig. 3b) is part of the plan.
	Metro500 bool
	// FromTS and ToTS bound tweet timestamps to [FromTS, ToTS) in Unix
	// milliseconds. HasTo (not a zero sentinel) marks whether the window
	// is bounded above, so a bound at exactly the epoch is representable.
	FromTS, ToTS int64
	HasTo        bool
}

// PlanRequest validates req and reports the plan it would execute,
// against the embedded Australian gazetteer NewStudy binds to.
func PlanRequest(req Request) (*PlanInfo, error) {
	p, err := buildPlan(census.Australia(), req, false)
	if err != nil {
		return nil, err
	}
	info := &PlanInfo{
		Stats:    p.wants(AnalysisStats),
		Extract:  p.wants(AnalysisMobility) || p.wants(AnalysisFlows),
		Count:    p.wants(AnalysisMobility) || p.wants(AnalysisPopulation),
		Metro500: p.metro,
		FromTS:   p.fromTS,
		ToTS:     p.toTS,
		HasTo:    p.hasTo,
	}
	for _, a := range analyses() {
		if p.want[a] {
			info.Analyses = append(info.Analyses, a)
		}
	}
	for _, sc := range p.scales {
		info.Scales = append(info.Scales, sc.scale)
		info.ScaleRadius = append(info.ScaleRadius, sc.radius)
	}
	return info, nil
}

// FoldedPass carries the observer outputs for one request — a pass's
// own (Study.Fold) or reconstructed by an external fold, exactly the
// values the streaming pass's merged observer set would have produced
// over the same in-window substream. Only the fields
// the request's plan needs are consulted; see PlanRequest for which.
type FoldedPass struct {
	// Tweets is the number of in-window tweets observed; zero folds to
	// ErrEmptyDataset like an empty streaming pass.
	Tweets int64
	// Stats are the trajectory statistics in serial (user-major) order.
	// Required iff the plan wants stats. MappedTweets is not consulted.
	Stats *mobility.Stats
	// BBox, FirstTS, LastTS and Seen reproduce the span accumulator:
	// observed coordinate ranges and collection period. Consulted iff the
	// plan wants stats; Seen marks whether any tweet was observed.
	BBox            geo.BBox
	FirstTS, LastTS int64
	Seen            bool
	// Counts holds, per plan scale, the per-area unique-user counts.
	// Required for every plan scale iff the plan counts.
	Counts map[census.Scale][]float64
	// Flows holds, per plan scale, the extracted flow matrix. Required
	// for every plan scale iff the plan extracts.
	Flows map[census.Scale]*mobility.FlowMatrix
	// Metro500 is the per-area unique-user counts of the fixed 0.5 km
	// metropolitan variant. Required iff the plan's Metro500 is set.
	Metro500 []float64
}

// AssembleFolded builds the Result for req from a folded pass — Execute's
// own assembly. A fold that reproduces the observer state exactly
// therefore yields a Result bit-identical to a cold full pass over the
// same substream.
func AssembleFolded(req Request, f *FoldedPass) (*Result, error) {
	p, err := buildPlan(census.Australia(), req, false)
	if err != nil {
		return nil, err
	}
	// Every analysis is undefined over nothing: an empty source (or a
	// window matching no tweets) is reported uniformly, not as whatever
	// downstream fit happens to fail first.
	if f.Tweets == 0 {
		return nil, ErrEmptyDataset
	}
	if p.wants(AnalysisStats) && f.Stats == nil {
		return nil, fmt.Errorf("core: folded pass missing trajectory statistics")
	}
	for _, sc := range p.scales {
		if c := f.Counts[sc.scale]; sc.count && len(c) != len(sc.regions.Areas) {
			return nil, fmt.Errorf("core: folded counts for %s: got %d areas, want %d",
				sc.scale, len(c), len(sc.regions.Areas))
		}
		if fm := f.Flows[sc.scale]; sc.extract && (fm == nil || len(fm.Flows) != len(sc.regions.Areas)) {
			return nil, fmt.Errorf("core: folded flow matrix for %s missing or mis-sized", sc.scale)
		}
	}
	if p.metro && len(f.Metro500) != len(p.metroRS.Areas) {
		return nil, fmt.Errorf("core: folded metro 0.5 km counts: got %d areas, want %d",
			len(f.Metro500), len(p.metroRS.Areas))
	}
	return assemble(p, f)
}
