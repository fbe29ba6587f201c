// Package core is the paper's primary contribution as a reusable pipeline:
// multi-scale population and mobility estimation from a geo-tagged tweet
// stream. A Study binds a tweet source to the census gazetteer and runs,
// in a single streaming pass, the dataset statistics of Table I, the
// population estimation of §III (Fig. 3) and the mobility extraction and
// model comparison of §IV (Fig. 4, Table II) at the three geographic
// scales.
//
// The streaming pass is sharded and worker-parallel (DESIGN.md §4): when
// the source can split into user-disjoint sub-streams, each worker owns a
// private observer set and the per-shard observers are merged in shard
// order, which makes the result bit-identical to a serial pass regardless
// of the worker count.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/models"
	"geomob/internal/population"
	"geomob/internal/stats"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// Source yields a tweet stream in (user, time) order — the canonical order
// produced by the synthesizer and by compacted tweetdb stores.
type Source = tweet.Source

// ShardedSource is a Source that can split into user-disjoint,
// (user, time)-ordered sub-streams for parallel consumption; see the
// contract on tweet.ShardedSource.
type ShardedSource = tweet.ShardedSource

// SliceSource adapts an in-memory tweet slice (already sorted) to Source.
type SliceSource []tweet.Tweet

// Each implements Source.
func (s SliceSource) Each(fn func(tweet.Tweet) error) error {
	for _, t := range s {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Shards implements ShardedSource by cutting the slice into at most n
// contiguous runs at user boundaries, balanced by tweet count.
func (s SliceSource) Shards(n int) ([]tweet.Source, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count must be positive, got %d", n)
	}
	out := make([]tweet.Source, 0, n)
	start := 0
	for k := 0; k < n && start < len(s); k++ {
		end := start + (len(s)-start)/(n-k)
		if end <= start {
			end = start + 1
		}
		// Never split a user across shards: extend to the next boundary.
		for end < len(s) && s[end].UserID == s[end-1].UserID {
			end++
		}
		out = append(out, s[start:end])
		start = end
	}
	if len(out) == 0 {
		out = append(out, SliceSource(nil))
	}
	return out, nil
}

// EachContext implements tweet.ContextSource: the loop polls ctx every
// few thousand tweets, so a cancelled pass over a large in-memory corpus
// stops promptly.
func (s SliceSource) EachContext(ctx context.Context, fn func(tweet.Tweet) error) error {
	for i, t := range s {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// StoreSource adapts a tweetdb store to Source. The store must be
// compacted (global user/time order); see tweetdb.Store.Compact.
type StoreSource struct {
	Store *tweetdb.Store
	Query tweetdb.Query
}

// Each implements Source.
func (s StoreSource) Each(fn func(tweet.Tweet) error) error {
	it := s.Store.Scan(s.Query)
	defer it.Close()
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return it.Err()
}

// EachContext implements tweet.ContextSource: cancellation is polled
// between records, so a cancelled scan stops after at most one further
// segment decode instead of draining the store.
func (s StoreSource) EachContext(ctx context.Context, fn func(tweet.Tweet) error) error {
	it := s.Store.Scan(s.Query)
	defer it.Close()
	n := 0
	for {
		if n&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		t, ok := it.Next()
		if !ok {
			break
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return it.Err()
}

// Window implements tweet.TimeWindowed by intersecting the half-open
// [fromTS, toTS) window with the source's query, so a request window
// rides the store's predicate pushdown — pruned segments are never read
// — instead of being filtered after the fact.
func (s StoreSource) Window(fromTS, toTS int64) tweet.Source {
	q := s.Query
	if fromTS > q.FromTS {
		q.FromTS = fromTS
	}
	if toTS != 0 && (q.ToTS == 0 || toTS < q.ToTS) {
		q.ToTS = toTS
	}
	return StoreSource{Store: s.Store, Query: q}
}

// Shards implements ShardedSource: the store's segment metadata is used to
// split the query into user-disjoint ranges (tweetdb.Store.ShardQueries)
// whose scans decode disjoint segment runs concurrently.
func (s StoreSource) Shards(n int) ([]tweet.Source, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count must be positive, got %d", n)
	}
	qs := s.Store.ShardQueries(s.Query, n)
	out := make([]tweet.Source, len(qs))
	for i, q := range qs {
		out[i] = StoreSource{Store: s.Store, Query: q}
	}
	return out, nil
}

// DatasetStats reproduces Table I: the corpus-level statistics.
type DatasetStats struct {
	BBox             geo.BBox  // observed coordinate ranges
	First, Last      time.Time // observed collection period
	Tweets           int64
	Users            int64
	AvgTweetsPerUser float64
	AvgWaitingHours  float64
	AvgLocations     float64 // mean distinct ~5 km geohash cells per user
	// HeavyUsers[k] counts users with more than k tweets, for the paper's
	// thresholds 50, 100, 500 and 1000.
	HeavyUsers map[int]int64

	TweetsPerUser []float64 // raw per-user counts (Fig. 2a input)
	GyrationKM    []float64 // per-user radius of gyration in km (extension)

	// MedianGyrationKM and MeanGyrationKM summarise GyrationKM; the median
	// is dominated by single-tweet users (r_g = 0), so the mean is the
	// more informative headline.
	MedianGyrationKM float64
	MeanGyrationKM   float64
}

// StudyOptions configure how a Study executes.
type StudyOptions struct {
	// Workers is the number of parallel stream consumers. Zero means
	// runtime.GOMAXPROCS(0). Sources that do not implement ShardedSource
	// fall back to a single serial pass. The worker count never changes
	// the result: per-shard observers are merged in shard order, so the
	// output is bit-identical to Workers: 1.
	Workers int
}

// Analysis names one family of the paper's deliverables that a Request
// can select independently.
type Analysis string

const (
	// AnalysisStats is the Table I corpus statistics plus the per-user
	// series behind them (tweet counts — Fig. 2a — and gyration radii)
	// and the observed bounding box / collection period.
	AnalysisStats Analysis = "stats"
	// AnalysisPopulation is the §III population estimation: per-area
	// unique-user counts, the rescaling fit and correlations (Fig. 3).
	AnalysisPopulation Analysis = "population"
	// AnalysisMobility is the §IV model comparison: OD flows plus the
	// gravity/radiation fits and Table II metrics. It implies the
	// per-scale user counts the models take their populations from.
	AnalysisMobility Analysis = "mobility"
	// AnalysisFlows is the raw OD flow extraction alone — no model
	// fitting and no population rescaling.
	AnalysisFlows Analysis = "flows"
)

// analyses returns every analysis in canonical order.
func analyses() []Analysis {
	return []Analysis{AnalysisStats, AnalysisPopulation, AnalysisMobility, AnalysisFlows}
}

// Request scopes one Study execution: which analyses to compute, at which
// scales, over which time window, with which search radius. The zero
// value requests everything Run computes — all analyses at all scales
// over the full stream with the paper's default radii. See DESIGN.md §5
// for the contract.
type Request struct {
	// Analyses selects the deliverable families. Empty means the full
	// study: stats, population and mobility (flows ride along with
	// mobility).
	Analyses []Analysis
	// Scales restricts the geographic scales. Empty means all three.
	Scales []census.Scale
	// From and To bound tweet timestamps to the half-open window
	// [From, To). A zero time leaves that side unbounded. When the
	// source implements tweet.TimeWindowed (tweetdb stores), the window
	// is pushed down into the scan so pruned segments are never
	// decoded; otherwise it is applied in-stream before the observers.
	From, To time.Time
	// Radius overrides the area-search radius ε in metres at every
	// requested scale. Zero keeps each scale's paper default. A
	// non-zero radius also skips the fixed 0.5 km metropolitan variant
	// (Fig. 3b), which only makes sense against the defaults.
	Radius float64
}

// Key renders the request in canonical form: two requests with equal keys
// select the same computation regardless of the order or duplication of
// their Analyses and Scales. Service layers use it as a cache key (paired
// with a source-identity component such as tweetdb.Store.Generation).
func (r Request) Key() string {
	want := analysisSet(r.Analyses)
	var as []string
	for _, a := range analyses() {
		if want[a] {
			as = append(as, string(a))
		}
	}
	inScale := map[census.Scale]bool{}
	scales := r.Scales
	if len(scales) == 0 {
		scales = census.Scales()
	}
	for _, sc := range scales {
		inScale[sc] = true
	}
	var ss []string
	for _, sc := range census.Scales() {
		if inScale[sc] {
			ss = append(ss, sc.String())
		}
	}
	// Unbounded sides render as "-" so a bound at exactly the epoch
	// (UnixMilli 0) keys differently from no bound at all.
	from, to := "-", "-"
	if !r.From.IsZero() {
		from = strconv.FormatInt(r.From.UnixMilli(), 10)
	}
	if !r.To.IsZero() {
		to = strconv.FormatInt(r.To.UnixMilli(), 10)
	}
	return fmt.Sprintf("a=%s|s=%s|w=[%s,%s)|r=%g",
		strings.Join(as, ","), strings.Join(ss, ","), from, to, r.Radius)
}

// analysisSet normalises the analysis selection: empty selects the full
// study, and flows are dropped when mobility is also selected (mobility
// subsumes them), so equivalent selections share one plan and one key.
func analysisSet(as []Analysis) map[Analysis]bool {
	want := map[Analysis]bool{}
	if len(as) == 0 {
		want[AnalysisStats] = true
		want[AnalysisPopulation] = true
		want[AnalysisMobility] = true
		return want
	}
	for _, a := range as {
		want[a] = true
	}
	if want[AnalysisMobility] {
		delete(want, AnalysisFlows)
	}
	return want
}

// Study is the multi-scale estimation pipeline over one tweet source.
type Study struct {
	src  Source
	gaz  *census.Gazetteer
	opts StudyOptions
}

// NewStudy binds a source to the embedded Australian gazetteer with
// default options (one worker per CPU).
func NewStudy(src Source) *Study {
	return NewStudyWithOptions(src, StudyOptions{})
}

// NewStudyWithOptions binds a source to the embedded Australian gazetteer
// with explicit options.
func NewStudyWithOptions(src Source, opts StudyOptions) *Study {
	return &Study{src: src, gaz: census.Australia(), opts: opts}
}

// workers resolves the configured worker count.
func (s *Study) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ModelFit is one fitted model with its Table II metrics and the Fig. 4
// scatter data.
type ModelFit struct {
	Name    string
	Params  string // human-readable fitted parameters
	Metrics *models.Metrics
	Est     []float64   // estimated traffic per OD pair (Fig. 4 x-axis)
	Obs     []float64   // extracted traffic per OD pair (Fig. 4 y-axis)
	Binned  []stats.Bin // log-binned means (Fig. 4 red dots)
}

// MobilityResult is the §IV analysis for one scale.
type MobilityResult struct {
	Scale     census.Scale
	Flows     *mobility.FlowMatrix
	OD        *models.OD
	Fits      []ModelFit
	TotalFlow float64
	FlowPairs int
}

// Result bundles everything the paper reports. Fields whose analysis was
// not requested stay nil (Execute) — Run fills everything.
type Result struct {
	Stats *DatasetStats

	// Population estimates per requested scale (Fig. 3a). Pooled is the
	// cross-scale correlation, computed when at least two scales were
	// estimated; PopulationMetro500m is the 0.5 km metropolitan variant
	// (Fig. 3b), computed for default-radius requests covering the
	// metropolitan scale.
	Population          map[census.Scale]*population.Estimate
	PopulationMetro500m *population.Estimate
	Pooled              *population.Pooled

	// Mobility holds, per requested scale, the §IV analysis (Fig. 4,
	// Table II) — or, for flows-only requests, just the extracted flow
	// matrix with OD and Fits left nil.
	Mobility map[census.Scale]*MobilityResult

	// Observers is the number of live stream observers each worker ran
	// — the quantity the request-scoped API minimises. A full Run
	// builds eight (three extractors, three counters, the metro 0.5 km
	// counter and the span accumulator); a single-scale flows request
	// builds one.
	Observers int
}

// spanAcc accumulates the corpus bounding box and observation period —
// the remaining Table I inputs — inline with the streaming pass, so the
// source is read exactly once. The seen flag (not a zero sentinel) marks
// whether any tweet was observed, so a legitimate tweet at epoch 0 is
// handled correctly.
type spanAcc struct {
	bbox        geo.BBox
	first, last int64
	seen        bool
}

func newSpanAcc() spanAcc { return spanAcc{bbox: geo.EmptyBBox()} }

func (a *spanAcc) observe(t tweet.Tweet) {
	a.bbox = a.bbox.Extend(t.Point())
	if !a.seen || t.TS < a.first {
		a.first = t.TS
	}
	if !a.seen || t.TS > a.last {
		a.last = t.TS
	}
	a.seen = true
}

// merge folds another accumulator in; min/max reductions are exact and
// order-independent.
func (a *spanAcc) merge(o *spanAcc) {
	if !o.seen {
		return
	}
	a.bbox = a.bbox.Union(o.bbox)
	if !a.seen || o.first < a.first {
		a.first = o.first
	}
	if !a.seen || o.last > a.last {
		a.last = o.last
	}
	a.seen = true
}

// planScale is one requested scale's machinery plus which observers the
// request actually needs there.
type planScale struct {
	scale   census.Scale
	regions census.RegionSet
	// mapper is the spatial assignment machinery; nil on shape-only plans
	// (AssembleFolded, PlanRequest), which never assign a point.
	mapper *mobility.AreaMapper
	// radius is the resolved search radius ε in metres (the request
	// override, or the scale's paper default) — recorded on the plan so
	// assembly does not need the mapper.
	radius  float64
	extract bool // flows or mobility requested: run an Extractor
	count   bool // population or mobility requested: run a UserCounter
}

// requestPlan is the per-request execution plan: the shared, read-only
// per-scale machinery (region sets, immutable area mappers — all workers
// share them) plus which observers the analysis selection needs. Only the
// asked-for observers are ever instantiated. Every tweet is assigned once
// per scale through the shared multi-scale mapper; the per-worker
// observers consume the precomputed assignment vector instead of querying
// a spatial index each.
type requestPlan struct {
	want   map[Analysis]bool
	scales []planScale

	// mapper bundles every distinct (region set, radius) assignment the
	// plan needs — slot i is scale i of the plan, followed by the fixed
	// metro 0.5 km variant at metroSlot — so each tweet's coordinates are
	// resolved exactly once per slot, shared by all observers of all
	// workers. Nil for plans that assign nothing (stats-only).
	mapper *mobility.MultiScaleMapper

	// statsIdx is the index of the scale whose extractor doubles as the
	// (mapper-independent) trajectory-statistics carrier; -1 with stats
	// wanted means a dedicated mapper-less stats extractor runs instead.
	statsIdx  int
	statsOnly bool

	// metro marks that the fixed ε = 0.5 km metropolitan variant
	// (Fig. 3b) is part of the plan; metro500Mapper drives it (nil on
	// shape-only plans) and metroSlot is its position in the shared
	// mapper's output vector.
	metro          bool
	metroRS        census.RegionSet
	metro500Mapper *mobility.AreaMapper
	metroSlot      int

	// fromTS/toTS is the [From, To) window in Unix ms. hasTo (not a zero
	// sentinel) marks whether the window is bounded above, so a bound at
	// exactly the epoch is honoured instead of collapsing to unbounded.
	// filterInStream stays true unless a TimeWindowed source accepted
	// the pushdown.
	fromTS, toTS   int64
	hasTo          bool
	filterInStream bool
}

func (p *requestPlan) wants(a Analysis) bool { return p.want[a] }

// observerCount reports how many live observers one worker of this plan
// runs — the quantity the request-scoped API minimises. Both the
// streaming pass and AssembleFolded derive Result.Observers from it, so
// the two execution paths report identically.
func (p *requestPlan) observerCount() int {
	n := 0
	for _, sc := range p.scales {
		if sc.extract {
			n++
		}
		if sc.count {
			n++
		}
	}
	if p.statsOnly {
		n++ // the dedicated mapper-less stats extractor
	}
	if p.metro {
		n++ // the metro 0.5 km counter
	}
	if p.wants(AnalysisStats) {
		n++ // the span accumulator
	}
	return n
}

// buildPlan validates req against the gazetteer and resolves it into an
// execution plan. The expensive spatial machinery (the grid resolvers
// behind the area mappers) is built only when withMappers is set; a
// shape-only plan carries the scales, radii and observer flags, which is
// all that plan introspection (PlanRequest) and folded assembly
// (AssembleFolded) need.
func buildPlan(gaz *census.Gazetteer, req Request, withMappers bool) (*requestPlan, error) {
	for _, a := range req.Analyses {
		switch a {
		case AnalysisStats, AnalysisPopulation, AnalysisMobility, AnalysisFlows:
		default:
			return nil, fmt.Errorf("core: unknown analysis %q", a)
		}
	}
	if req.Radius < 0 || math.IsNaN(req.Radius) || math.IsInf(req.Radius, 0) {
		return nil, fmt.Errorf("core: search radius must be finite and non-negative, got %v", req.Radius)
	}
	if !req.From.IsZero() && !req.To.IsZero() && !req.To.After(req.From) {
		return nil, fmt.Errorf("core: empty time window [%v, %v)", req.From, req.To)
	}
	p := &requestPlan{want: analysisSet(req.Analyses), statsIdx: -1}
	if !req.From.IsZero() {
		// A From at exactly the epoch coincides with the 0 sentinel's
		// semantics (TS >= 0), so no flag is needed on this side.
		p.fromTS = req.From.UnixMilli()
	}
	if !req.To.IsZero() {
		p.toTS = req.To.UnixMilli()
		p.hasTo = true
	}
	p.filterInStream = p.fromTS != 0 || p.hasTo

	scales := req.Scales
	if len(scales) == 0 {
		scales = census.Scales()
	}
	extract := p.wants(AnalysisMobility) || p.wants(AnalysisFlows)
	count := p.wants(AnalysisMobility) || p.wants(AnalysisPopulation)
	seen := map[census.Scale]bool{}
	// A stats-only request needs no per-scale machinery at all: the
	// trajectory statistics are scale-independent, so no mapper (and no
	// per-tweet nearest-area lookup) is built for it.
	if extract || count {
		for _, scale := range scales {
			if seen[scale] {
				continue
			}
			seen[scale] = true
			rs, err := gaz.Regions(scale)
			if err != nil {
				return nil, fmt.Errorf("core: regions for %s: %w", scale, err)
			}
			radius := req.Radius
			if radius == 0 {
				radius = scale.SearchRadius()
			}
			ps := planScale{
				scale: scale, regions: rs, radius: radius,
				extract: extract, count: count,
			}
			if withMappers {
				ps.mapper, err = mobility.NewAreaMapper(rs, req.Radius)
				if err != nil {
					return nil, fmt.Errorf("core: mapper for %s: %w", scale, err)
				}
			}
			p.scales = append(p.scales, ps)
		}
	}
	if p.wants(AnalysisStats) {
		// The trajectory statistics are mapper-independent, so they ride
		// the first scale's extractor when one runs anyway; a stats-only
		// request gets a dedicated extractor with no area mapping at all.
		if extract && len(p.scales) > 0 {
			p.statsIdx = 0
		} else {
			p.statsOnly = true
		}
	}
	if p.wants(AnalysisPopulation) && req.Radius == 0 && seen[census.ScaleMetropolitan] {
		metroRS, err := gaz.Regions(census.ScaleMetropolitan)
		if err != nil {
			return nil, err
		}
		p.metroRS = metroRS
		p.metro = true
		if withMappers {
			p.metro500Mapper, err = mobility.NewAreaMapper(metroRS, 500)
			if err != nil {
				return nil, err
			}
		}
	}
	if !withMappers {
		return p, nil
	}
	// Bundle every assignment the plan performs into one shared
	// multi-scale mapper: the streaming pass resolves each tweet once per
	// slot and every observer of every worker reads the shared vector.
	if len(p.scales) > 0 || p.metro500Mapper != nil {
		mappers := make([]*mobility.AreaMapper, 0, len(p.scales)+1)
		for _, sc := range p.scales {
			mappers = append(mappers, sc.mapper)
		}
		p.metroSlot = -1
		if p.metro500Mapper != nil {
			p.metroSlot = len(mappers)
			mappers = append(mappers, p.metro500Mapper)
		}
		msm, err := mobility.NewMultiScaleMapper(mappers...)
		if err != nil {
			return nil, fmt.Errorf("core: bundle mappers: %w", err)
		}
		p.mapper = msm
	}
	return p, nil
}

// observerSet is one worker's private observers over the shared plan.
// Slots the plan does not need stay nil — the point of the request-scoped
// design: a single-scale flows request runs one extractor, not the full
// eight-observer set of the everything pass.
type observerSet struct {
	plan       *requestPlan
	extractors []*mobility.Extractor   // parallel to plan.scales; nil unless extract
	counters   []*mobility.UserCounter // parallel to plan.scales; nil unless count
	statsExt   *mobility.Extractor     // mapper-less; only for stats-only plans
	metro500   *mobility.UserCounter
	span       spanAcc
	tweets     int64 // in-window tweets observed; 0 means an empty dataset

	// assign is the per-tweet assignment vector: one area index (or -1)
	// per slot of the plan's shared mapper, filled once per tweet and read
	// by every observer of this set.
	assign []int
}

func newObserverSet(p *requestPlan) *observerSet {
	o := &observerSet{
		plan:       p,
		extractors: make([]*mobility.Extractor, len(p.scales)),
		counters:   make([]*mobility.UserCounter, len(p.scales)),
		span:       newSpanAcc(),
	}
	if p.mapper != nil {
		o.assign = make([]int, p.mapper.Len())
	}
	for i, sc := range p.scales {
		if sc.extract {
			// Only the statistics-carrying extractor pays for the
			// trajectory series; the other scales extract flows lean.
			if i == p.statsIdx {
				o.extractors[i] = mobility.NewExtractor(sc.mapper)
			} else {
				o.extractors[i] = mobility.NewFlowExtractor(sc.mapper)
			}
		}
		if sc.count {
			o.counters[i] = mobility.NewUserCounter(sc.mapper)
		}
	}
	if p.statsOnly {
		o.statsExt = mobility.NewStatsExtractor()
	}
	if p.metro500Mapper != nil {
		o.metro500 = mobility.NewUserCounter(p.metro500Mapper)
	}
	return o
}

// passOutputs are the finalised products of one completed pass — whether
// merged from worker shards (Execute) or folded from materialised bucket
// partials (AssembleFolded). Slices are parallel to the plan's scales;
// slots the plan does not need stay nil.
type passOutputs struct {
	tweets int64
	stats  *mobility.Stats // nil unless the plan wants stats
	span   spanAcc
	counts [][]float64
	flows  []*mobility.FlowMatrix
	metro  []float64
}

// outputs extracts the final observer products of a completed (merged)
// observer set — the values an external bucket fold reproduces.
func (o *observerSet) outputs() *passOutputs {
	p := o.plan
	outs := &passOutputs{
		tweets: o.tweets,
		span:   o.span,
		counts: make([][]float64, len(p.scales)),
		flows:  make([]*mobility.FlowMatrix, len(p.scales)),
	}
	if p.wants(AnalysisStats) {
		statsExt := o.statsExt
		if p.statsIdx >= 0 {
			statsExt = o.extractors[p.statsIdx]
		}
		st := statsExt.Stats()
		outs.stats = &st
	}
	for i := range p.scales {
		if o.counters[i] != nil {
			outs.counts[i] = o.counters[i].Counts()
		}
		if o.extractors[i] != nil {
			outs.flows[i] = o.extractors[i].Flows()
		}
	}
	if o.metro500 != nil {
		outs.metro = o.metro500.Counts()
	}
	return outs
}

// observe feeds one tweet to every live observer, applying the request
// window first when it could not be pushed down into the source. The
// tweet's coordinates are resolved exactly once per assignment slot
// through the plan's shared mapper; the observers consume the precomputed
// assignments.
func (o *observerSet) observe(t tweet.Tweet) error {
	if o.plan.filterInStream {
		if t.TS < o.plan.fromTS || (o.plan.hasTo && t.TS >= o.plan.toTS) {
			return nil
		}
	}
	if err := t.Validate(); err != nil {
		return err
	}
	o.tweets++
	if o.plan.mapper != nil {
		o.plan.mapper.MapAll(t.Point(), o.assign)
	}
	for i := range o.extractors {
		if o.extractors[i] != nil {
			if err := o.extractors[i].ObserveArea(t, o.assign[i]); err != nil {
				return err
			}
		}
		if o.counters[i] != nil {
			if err := o.counters[i].ObserveArea(t, o.assign[i]); err != nil {
				return err
			}
		}
	}
	if o.statsExt != nil {
		if err := o.statsExt.ObserveArea(t, -1); err != nil {
			return err
		}
	}
	if o.metro500 != nil {
		if err := o.metro500.ObserveArea(t, o.assign[o.plan.metroSlot]); err != nil {
			return err
		}
	}
	if o.plan.wants(AnalysisStats) {
		o.span.observe(t)
	}
	return nil
}

// merge folds a later shard's observer set into o, in shard order.
func (o *observerSet) merge(next *observerSet) error {
	for i := range o.extractors {
		if o.extractors[i] != nil {
			if err := o.extractors[i].Merge(next.extractors[i]); err != nil {
				return err
			}
		}
		if o.counters[i] != nil {
			if err := o.counters[i].Merge(next.counters[i]); err != nil {
				return err
			}
		}
	}
	if o.statsExt != nil {
		if err := o.statsExt.Merge(next.statsExt); err != nil {
			return err
		}
	}
	if o.metro500 != nil {
		if err := o.metro500.Merge(next.metro500); err != nil {
			return err
		}
	}
	o.span.merge(&next.span)
	o.tweets += next.tweets
	return nil
}

// shardSource splits src into up to n user-disjoint sub-streams, falling
// back to a single serial shard when the source cannot split.
func shardSource(src Source, n int) ([]Source, error) {
	if n <= 1 {
		return []Source{src}, nil
	}
	ss, ok := src.(ShardedSource)
	if !ok {
		return []Source{src}, nil
	}
	shards, err := ss.Shards(n)
	if err != nil {
		return nil, fmt.Errorf("core: shard source: %w", err)
	}
	if len(shards) == 0 {
		return []Source{src}, nil
	}
	return shards, nil
}

// ErrEmptyDataset reports that the requested source (or time window)
// contained no tweets, so the dataset statistics are undefined. Service
// layers typically map it to a "no data" response rather than a failure.
var ErrEmptyDataset = errors.New("core: empty dataset")

// errShardAborted is the sentinel a worker returns when it stops because a
// sibling shard already failed; it never escapes runSharded.
var errShardAborted = errors.New("core: shard aborted")

// runSharded is Execute's fan-out/merge skeleton: one private observer
// per shard, concurrent consumption with cooperative abort on the first
// failure (so a corrupt shard does not leave siblings scanning to
// completion), then a fold of
// observers [1:] into observer [0] in shard order — the order the merge
// contract (DESIGN.md §4) requires for serial-identical results. Workers
// iterate via tweet.EachContext, so cancelling ctx aborts every shard
// promptly and surfaces ctx.Err().
func runSharded[T any](ctx context.Context, shards []Source, newObs func() T, observe func(T, tweet.Tweet) error, merge func(T, T) error) (T, error) {
	obs := make([]T, len(shards))
	for i := range obs {
		obs[i] = newObs()
	}
	errs := make([]error, len(shards))
	if len(shards) == 1 {
		errs[0] = tweet.EachContext(ctx, shards[0], func(t tweet.Tweet) error { return observe(obs[0], t) })
	} else {
		var aborted atomic.Bool
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = tweet.EachContext(ctx, shards[i], func(t tweet.Tweet) error {
					if aborted.Load() {
						return errShardAborted
					}
					if err := observe(obs[i], t); err != nil {
						aborted.Store(true)
						return err
					}
					return nil
				})
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errShardAborted) {
			var zero T
			return zero, err
		}
	}
	for _, next := range obs[1:] {
		if err := merge(obs[0], next); err != nil {
			var zero T
			return zero, fmt.Errorf("core: merge shards: %w", err)
		}
	}
	return obs[0], nil
}

// Run executes the full study — every analysis at every scale over the
// entire stream. It is Execute with the zero Request on a background
// context, kept as the convenience entry point; its output is identical
// to the pre-request-API pipeline.
func (s *Study) Run() (*Result, error) {
	return s.Execute(context.Background(), Request{})
}

// Execute runs exactly the analyses req selects, in a single sharded pass
// over the source followed by the requested per-scale post-processing.
// The source is read exactly once and only the asked-for observers run;
// the worker count (StudyOptions.Workers) never affects the result.
// Cancelling ctx aborts the pass promptly and returns an error wrapping
// ctx.Err().
func (s *Study) Execute(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := buildPlan(s.gaz, req, true)
	if err != nil {
		return nil, err
	}
	src := s.src
	if p.filterInStream {
		// Push the time window down into the source when it can scan a
		// restriction natively (tweetdb segment pruning); otherwise the
		// observers filter in-stream, which yields the same substream.
		// An upper bound at exactly the epoch cannot be expressed in the
		// pushdown's 0-means-unbounded encoding and stays in-stream.
		if ws, ok := src.(tweet.TimeWindowed); ok && !(p.hasTo && p.toTS == 0) {
			src = ws.Window(p.fromTS, p.toTS)
			p.filterInStream = false
		}
	}
	shards, err := shardSource(src, s.workers())
	if err != nil {
		return nil, err
	}

	// Fan out one private observer set per shard (mappers shared) and
	// merge in shard order: shards are user-ascending, so the merged
	// observers match a serial pass exactly.
	merged, err := runSharded(ctx, shards,
		func() *observerSet { return newObserverSet(p) },
		(*observerSet).observe,
		(*observerSet).merge)
	if err != nil {
		return nil, fmt.Errorf("core: stream pass: %w", err)
	}
	return assemble(p, merged.outputs())
}

// assemble turns the finalised pass outputs into the requested parts of
// Result. It is shared by the streaming pass and by AssembleFolded, so
// every downstream fit and correlation runs the identical float pipeline
// regardless of how the observer state was produced.
func assemble(p *requestPlan, outs *passOutputs) (*Result, error) {
	// Every analysis is undefined over nothing: an empty source (or a
	// window matching no tweets) is reported uniformly, not as whatever
	// downstream fit happens to fail first.
	if outs.tweets == 0 {
		return nil, ErrEmptyDataset
	}
	res := &Result{Observers: p.observerCount()}
	var err error

	// Table I statistics come from the first scale's extractor (the
	// trajectory statistics are mapper-independent) — or the dedicated
	// mapper-less one — plus the span accumulator from the same pass.
	if p.wants(AnalysisStats) {
		res.Stats, err = buildStats(*outs.stats, &outs.span)
		if err != nil {
			return nil, err
		}
	}

	// Population estimates are computed whenever counters ran (the
	// mobility models need them too) but exposed on the Result only when
	// population was asked for — unrequested fields stay nil, as the
	// Result contract promises. Pooled correlation and the Fig. 3b
	// variant are population-only extras.
	estByScale := map[census.Scale]*population.Estimate{}
	var estimates []*population.Estimate
	for i, sc := range p.scales {
		if !sc.count {
			continue
		}
		est, err := population.NewEstimate(sc.regions, sc.radius, outs.counts[i])
		if err != nil {
			return nil, fmt.Errorf("core: population estimate for %s: %w", sc.scale, err)
		}
		estByScale[sc.scale] = est
		estimates = append(estimates, est)
	}
	if p.wants(AnalysisPopulation) && len(estimates) > 0 {
		res.Population = estByScale
		if len(estimates) >= 2 {
			res.Pooled, err = population.Pool(estimates)
			if err != nil {
				return nil, fmt.Errorf("core: pooled correlation: %w", err)
			}
		}
		if outs.metro != nil {
			res.PopulationMetro500m, err = population.NewEstimate(p.metroRS, 500, outs.metro)
			if err != nil {
				return nil, fmt.Errorf("core: metro 0.5 km estimate: %w", err)
			}
		}
	}

	// Mobility model comparison per scale, with m and n taken from the
	// Twitter-derived populations as in §IV — or, for flows-only
	// requests, just the extracted matrices.
	if p.wants(AnalysisMobility) || p.wants(AnalysisFlows) {
		res.Mobility = map[census.Scale]*MobilityResult{}
		for i, sc := range p.scales {
			if !sc.extract {
				continue
			}
			flows := outs.flows[i]
			if p.wants(AnalysisMobility) {
				mr, err := buildMobility(sc.scale, flows, estByScale[sc.scale].TwitterUsers)
				if err != nil {
					return nil, fmt.Errorf("core: mobility study for %s: %w", sc.scale, err)
				}
				res.Mobility[sc.scale] = mr
			} else {
				mr := &MobilityResult{Scale: sc.scale, Flows: flows, TotalFlow: flows.Total()}
				_, _, pairFlows := flows.Pairs()
				mr.FlowPairs = len(pairFlows)
				res.Mobility[sc.scale] = mr
			}
		}
	}
	return res, nil
}

// buildStats assembles Table I from the pass's trajectory statistics and
// span accumulator.
func buildStats(st mobility.Stats, span *spanAcc) (*DatasetStats, error) {
	ds := &DatasetStats{
		BBox:          span.bbox,
		Tweets:        int64(st.Tweets),
		Users:         int64(st.Users),
		TweetsPerUser: st.TweetsPerUser,
		GyrationKM:    st.GyrationKM,
		HeavyUsers:    map[int]int64{},
	}
	if len(st.GyrationKM) > 0 {
		med, err := stats.Median(st.GyrationKM)
		if err != nil {
			return nil, err
		}
		ds.MedianGyrationKM = med
		mean, err := stats.Mean(st.GyrationKM)
		if err != nil {
			return nil, err
		}
		ds.MeanGyrationKM = mean
	}
	if st.Users == 0 || !span.seen {
		return nil, ErrEmptyDataset
	}
	mean, err := stats.Mean(st.TweetsPerUser)
	if err != nil {
		return nil, err
	}
	ds.AvgTweetsPerUser = mean
	if gaps := st.Tweets - st.Users; gaps > 0 {
		ds.AvgWaitingHours = float64(st.WaitMs) / float64(gaps) / 3.6e6
	}
	if len(st.CellsPerUser) > 0 {
		ml, err := stats.Mean(st.CellsPerUser)
		if err != nil {
			return nil, err
		}
		ds.AvgLocations = ml
	}
	for _, threshold := range []int{50, 100, 500, 1000} {
		var count int64
		for _, c := range st.TweetsPerUser {
			if c > float64(threshold) {
				count++
			}
		}
		ds.HeavyUsers[threshold] = count
	}
	ds.First = time.UnixMilli(span.first).UTC()
	ds.Last = time.UnixMilli(span.last).UTC()
	return ds, nil
}

// buildMobility fits and evaluates the three models on one scale's flows.
func buildMobility(scale census.Scale, flows *mobility.FlowMatrix, twitterPop []float64) (*MobilityResult, error) {
	od, err := models.BuildOD(flows.Areas, twitterPop, flows.Flows)
	if err != nil {
		return nil, err
	}
	mr := &MobilityResult{
		Scale:     scale,
		Flows:     flows,
		OD:        od,
		TotalFlow: flows.Total(),
	}
	_, _, pairFlows := flows.Pairs()
	mr.FlowPairs = len(pairFlows)
	for _, m := range models.All() {
		if err := m.Fit(od); err != nil {
			return nil, fmt.Errorf("fit %s: %w", m.Name(), err)
		}
		met, err := models.Evaluate(od, m)
		if err != nil {
			return nil, fmt.Errorf("evaluate %s: %w", m.Name(), err)
		}
		est, obs, binned, err := models.ScatterSeries(od, m, 2)
		if err != nil {
			return nil, fmt.Errorf("scatter %s: %w", m.Name(), err)
		}
		mr.Fits = append(mr.Fits, ModelFit{
			Name:    m.Name(),
			Params:  describeModel(m),
			Metrics: met,
			Est:     est,
			Obs:     obs,
			Binned:  binned,
		})
	}
	return mr, nil
}

// describeModel renders the fitted parameters of a known model.
func describeModel(m models.Model) string {
	switch v := m.(type) {
	case *models.Gravity4:
		return fmt.Sprintf("C=%.3g α=%.3f β=%.3f γ=%.3f", v.C, v.Alpha, v.Beta, v.Gamma)
	case *models.Gravity2:
		return fmt.Sprintf("C=%.3g γ=%.3f", v.C, v.Gamma)
	case *models.Radiation:
		return fmt.Sprintf("C=%.3g", v.C)
	default:
		return ""
	}
}

// PopulationAtRadius reruns the §III user counting for one scale at an
// arbitrary search radius — the Fig. 3b / ablation A1 primitive, now a
// thin population-only Execute.
func (s *Study) PopulationAtRadius(scale census.Scale, radius float64) (*population.Estimate, error) {
	res, err := s.Execute(context.Background(), Request{
		Analyses: []Analysis{AnalysisPopulation},
		Scales:   []census.Scale{scale},
		Radius:   radius,
	})
	if err != nil {
		return nil, err
	}
	return res.Population[scale], nil
}
