// Package mobility extracts origin–destination flows and trajectory
// statistics from geo-tagged tweet streams, implementing §IV of the paper:
// a tweet is assigned to the nearest census area within the scale's search
// radius ε, and every pair of *consecutive tweets by the same user* whose
// assignments differ contributes one unit of flow from the first area to
// the second.
package mobility

import (
	"fmt"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/index"
	"geomob/internal/tweet"
)

// AreaMapper assigns coordinates to census areas using the paper's
// search-radius rule: a point belongs to the nearest area centre within
// radius ε, and to no area otherwise. Assignment goes through a
// precomputed index.Resolver, so the per-point cost is an array lookup for
// the overwhelming majority of points; the resolver's internal k-d tree
// remains the exact oracle it verifies against.
type AreaMapper struct {
	areas    []census.Area
	radius   float64
	resolver *index.Resolver
}

// NewAreaMapper builds a mapper over the region set with the given search
// radius in metres. Radius zero uses the scale's paper default.
func NewAreaMapper(rs census.RegionSet, radius float64) (*AreaMapper, error) {
	if len(rs.Areas) == 0 {
		return nil, fmt.Errorf("mobility: empty region set")
	}
	if radius == 0 {
		radius = rs.Scale.SearchRadius()
	}
	if radius <= 0 {
		return nil, fmt.Errorf("mobility: search radius must be positive, got %v", radius)
	}
	entries := make([]index.Entry, len(rs.Areas))
	for i, a := range rs.Areas {
		entries[i] = index.Entry{ID: int64(i), P: a.Center}
	}
	resolver, err := index.NewResolver(entries, radius)
	if err != nil {
		return nil, fmt.Errorf("mobility: build area index: %w", err)
	}
	return &AreaMapper{areas: rs.Areas, radius: radius, resolver: resolver}, nil
}

// Radius returns the mapper's search radius in metres.
func (m *AreaMapper) Radius() float64 { return m.radius }

// numAreas returns the number of areas in the mapper.
func (m *AreaMapper) numAreas() int { return len(m.areas) }

// Area returns the i-th area.
func (m *AreaMapper) Area(i int) census.Area { return m.areas[i] }

// Map returns the area index for p, or -1 when no centre lies within the
// search radius. It performs no heap allocations.
func (m *AreaMapper) Map(p geo.Point) int {
	return int(m.resolver.Resolve(p))
}

// Resolver exposes the precomputed assignment index.
func (m *AreaMapper) Resolver() *index.Resolver { return m.resolver }

// MultiScaleMapper bundles the area mappers of several scales so a point
// is decoded once and assigned at every scale in a single call — the §III
// assignment the study pipeline repeats per scale, without repeating the
// per-scale index walk per observer.
type MultiScaleMapper struct {
	mappers []*AreaMapper
}

// NewMultiScaleMapper builds the bundle. At least one mapper is required.
func NewMultiScaleMapper(mappers ...*AreaMapper) (*MultiScaleMapper, error) {
	if len(mappers) == 0 {
		return nil, fmt.Errorf("mobility: multi-scale mapper needs at least one mapper")
	}
	for i, m := range mappers {
		if m == nil {
			return nil, fmt.Errorf("mobility: multi-scale mapper slot %d is nil", i)
		}
	}
	return &MultiScaleMapper{mappers: append([]*AreaMapper(nil), mappers...)}, nil
}

// Len returns the number of bundled mappers.
func (m *MultiScaleMapper) Len() int { return len(m.mappers) }

// MapAll assigns p at every bundled scale, writing the area index (or -1)
// for mapper i into out[i]. out must have at least Len() elements. The
// call performs no heap allocations.
func (m *MultiScaleMapper) MapAll(p geo.Point, out []int) {
	for i, am := range m.mappers {
		out[i] = am.Map(p)
	}
}

// MapAllBatch assigns whole coordinate columns at every bundled scale:
// the assignment of point i at mapper s lands in out[i*stride+s] as an
// int16 area index (area counts are far below 32k at every census scale;
// -1 marks unassigned). stride must be at least Len() and out must hold
// len(lats)*stride elements. This is the batched-ingest counterpart of
// MapAll: per scale it resolves one whole column before scattering, so
// the per-point cost is the resolver's array lookup and nothing else.
func (m *MultiScaleMapper) MapAllBatch(lats, lons []float64, out []int16, stride int) {
	n := len(lats)
	if n == 0 {
		return
	}
	scratch := make([]int64, n)
	for s, am := range m.mappers {
		am.resolver.ResolveBatch(lats, lons, scratch)
		for i, v := range scratch {
			out[i*stride+s] = int16(v)
		}
	}
}

// FlowMatrix holds the directed flow counts between the areas of one
// region set. Flows[i][j] counts observed transitions i→j; the diagonal
// (non-moves between mapped tweets) is tracked separately by Stays.
type FlowMatrix struct {
	Areas []census.Area
	Flows [][]float64
	Stays []float64 // consecutive pairs mapped to the same area
}

// NewFlowMatrix allocates a zero matrix over the areas.
func NewFlowMatrix(areas []census.Area) *FlowMatrix {
	f := &FlowMatrix{
		Areas: areas,
		Flows: make([][]float64, len(areas)),
		Stays: make([]float64, len(areas)),
	}
	for i := range f.Flows {
		f.Flows[i] = make([]float64, len(areas))
	}
	return f
}

// Total returns the total off-diagonal flow.
func (f *FlowMatrix) Total() float64 {
	var s float64
	for i := range f.Flows {
		for j, v := range f.Flows[i] {
			if i != j {
				s += v
			}
		}
	}
	return s
}

// Pairs returns the off-diagonal (origin, destination, flow) triples with
// positive flow, in row-major order.
func (f *FlowMatrix) Pairs() (src, dst []int, flow []float64) {
	for i := range f.Flows {
		for j, v := range f.Flows[i] {
			if i != j && v > 0 {
				src = append(src, i)
				dst = append(dst, j)
				flow = append(flow, v)
			}
		}
	}
	return src, dst, flow
}

// Extractor accumulates flows and trajectory statistics from a tweet
// stream that arrives in (user, time) order — the canonical tweetdb order.
// Feed every tweet via Observe (or ObserveArea when the assignment was
// already computed by a shared mapper), then read the results.
type Extractor struct {
	mapper *AreaMapper
	flows  *FlowMatrix
	// trackStats selects whether the trajectory statistics (Table I,
	// Fig. 2a, the gyration series) are accumulated. Flow extraction never
	// needs them, and the study pipeline reads them from a single
	// extractor, so the others run lean.
	trackStats bool

	firstUser int64
	prevUser  int64
	prevArea  int
	prevTS    int64
	started   bool

	// Trajectory statistics for Table I.
	tweetsSeen   int
	mappedSeen   int
	userCount    int
	userTweets   int
	perUserCount []float64
	userCells    map[uint64]struct{} // geohash-5 cell IDs (geo.GeohashCellID)
	perUserCells []float64
	// One user's waiting times telescope to last − first tweet time, so
	// their sum over all users is one integer.
	userFirstTS int64
	waitMs      int64
	// The current user's summed unit vectors and the radii of the users
	// closed so far.
	sum             VecSum
	perUserGyration []float64
}

// NewExtractor builds an extractor over the mapper that accumulates both
// flows and the full trajectory statistics.
func NewExtractor(mapper *AreaMapper) *Extractor {
	return &Extractor{
		mapper:     mapper,
		flows:      NewFlowMatrix(mapper.areas),
		trackStats: true,
		prevArea:   -1,
		userCells:  map[uint64]struct{}{},
	}
}

// NewFlowExtractor builds a lean extractor over the mapper: it accumulates
// the flow matrix and the tweet/user counters but skips the trajectory
// statistics (geohash cells, gyration), which cost a per-tweet hash insert
// and trig the flow extraction never reads. Stats on a lean extractor
// returns empty series.
func NewFlowExtractor(mapper *AreaMapper) *Extractor {
	return &Extractor{
		mapper:   mapper,
		flows:    NewFlowMatrix(mapper.areas),
		prevArea: -1,
	}
}

// NewStatsExtractor builds an extractor that accumulates only the
// trajectory statistics, skipping area assignment entirely: Observe costs
// no nearest-area lookup and Flows returns an empty matrix. It serves
// stats-only requests of the Study pipeline, where no flow matrix or
// per-area count is wanted.
func NewStatsExtractor() *Extractor {
	return &Extractor{
		flows:      NewFlowMatrix(nil),
		trackStats: true,
		prevArea:   -1,
		userCells:  map[uint64]struct{}{},
	}
}

// Observe consumes the next tweet, assigning it through the extractor's
// own mapper. Tweets must arrive sorted by (user, time); violations are
// reported as errors because they would silently corrupt the flow counts.
func (e *Extractor) Observe(t tweet.Tweet) error {
	area := -1
	if e.mapper != nil {
		area = e.mapper.Map(t.Point())
	}
	return e.ObserveArea(t, area)
}

// ObserveArea consumes the next tweet with its area assignment already
// resolved (by the extractor's own mapper or an equivalent shared one);
// area is the assigned area index, -1 for unassigned. This is the hot
// path of the study pipeline: a shared mobility.MultiScaleMapper resolves
// every scale once per tweet and fans the assignments out to the
// observers, so no observer repeats the spatial lookup.
func (e *Extractor) ObserveArea(t tweet.Tweet, area int) error {
	if e.started && t.UserID == e.prevUser && t.TS < e.prevTS {
		return fmt.Errorf("mobility: stream out of order: user %d saw ts %d after %d", t.UserID, t.TS, e.prevTS)
	}
	if e.started && t.UserID < e.prevUser {
		return fmt.Errorf("mobility: stream out of order: user %d after user %d", t.UserID, e.prevUser)
	}
	e.tweetsSeen++
	if area >= 0 {
		e.mappedSeen++
	}

	if !e.started || t.UserID != e.prevUser {
		e.flushUser()
		if !e.started {
			e.firstUser = t.UserID
		}
		e.started = true
		e.prevUser = t.UserID
		e.userCount++
		e.userTweets = 0
		e.userFirstTS = t.TS
	} else if e.prevArea >= 0 && area >= 0 {
		// Same user, both ends mapped: one unit of flow (§IV).
		if e.prevArea == area {
			e.flows.Stays[area]++
		} else {
			e.flows.Flows[e.prevArea][area]++
		}
	}
	e.userTweets++
	if e.trackStats {
		e.userCells[geo.GeohashCellID(t.Point(), 5)] = struct{}{}
		e.sum.Add(UnitVec(t.Point()))
	}
	e.prevTS = t.TS
	e.prevArea = area
	return nil
}

// flushUser closes out the per-user accumulators.
func (e *Extractor) flushUser() {
	if e.userTweets > 0 && e.trackStats {
		e.perUserCount = append(e.perUserCount, float64(e.userTweets))
		e.perUserCells = append(e.perUserCells, float64(len(e.userCells)))
		clear(e.userCells)
		e.waitMs += e.prevTS - e.userFirstTS
		e.perUserGyration = append(e.perUserGyration, GyrationRadiusKM(e.sum, e.userTweets))
		e.sum = VecSum{}
	}
}

// WaitingSeries returns the waiting time in seconds of every pair of
// consecutive tweets of one user in a (user, time)-ordered stream — Fig.
// 2b's input.
// The extractor keeps only their sum (Stats.WaitMs); a figure that wants
// the distribution derives it from the tweets it holds.
func WaitingSeries(tweets []tweet.Tweet) []float64 {
	return stepSeries(tweets, func(prev, cur *tweet.Tweet) float64 { return float64(cur.TS-prev.TS) / 1000 })
}

// DisplacementSeries is WaitingSeries for the displacements in kilometres
// (the Δr of Hawelka et al., the paper's ref. [9]); zero-length moves are
// included.
func DisplacementSeries(tweets []tweet.Tweet) []float64 {
	return stepSeries(tweets, func(prev, cur *tweet.Tweet) float64 { return geo.Haversine(prev.Point(), cur.Point()) / 1000 })
}

func stepSeries(tweets []tweet.Tweet, step func(prev, cur *tweet.Tweet) float64) []float64 {
	var out []float64
	for i := 1; i < len(tweets); i++ {
		if tweets[i].UserID == tweets[i-1].UserID {
			out = append(out, step(&tweets[i-1], &tweets[i]))
		}
	}
	return out
}

// Flows finalises and returns the flow matrix. Call after the last Observe.
func (e *Extractor) Flows() *FlowMatrix {
	e.flushUser()
	e.userTweets = 0
	return e.flows
}

// Stats summarises the trajectory statistics of the observed stream.
type Stats struct {
	Tweets       int // total tweets observed
	MappedTweets int // tweets assigned to some area
	Users        int // distinct users
	// WaitMs is the sum of all Tweets − Users waiting times between
	// consecutive tweets of one user, in milliseconds: per user it
	// telescopes to last − first tweet time.
	WaitMs        int64
	TweetsPerUser []float64 // per-user tweet counts (Fig. 2a input)
	CellsPerUser  []float64 // distinct ~5 km geohash cells per user (Table I "locations")
	GyrationKM    []float64 // per-user radius of gyration, km (González et al.)
}

// Stats finalises and returns the trajectory statistics.
func (e *Extractor) Stats() Stats {
	e.flushUser()
	e.userTweets = 0
	return Stats{
		Tweets:        e.tweetsSeen,
		MappedTweets:  e.mappedSeen,
		Users:         e.userCount,
		WaitMs:        e.waitMs,
		TweetsPerUser: e.perUserCount,
		CellsPerUser:  e.perUserCells,
		GyrationKM:    e.perUserGyration,
	}
}

// UniqueUsersPerArea counts, per area, the distinct users with at least one
// tweet mapped to the area — the paper's "Twitter population" (§III).
// The stream must arrive in (user, time) order so per-user deduplication
// reduces to an epoch-stamped mark array: mark[a] records the serial of
// the last user who touched area a, so the per-tweet cost is two array
// accesses and no allocation.
type UserCounter struct {
	mapper    *AreaMapper
	counts    []float64
	mark      []int64 // mark[a] == serial of the last user counted in a
	serial    int64   // current user's serial, starting at 1
	firstUser int64
	prevUser  int64
	started   bool
}

// NewUserCounter builds a counter over the mapper.
func NewUserCounter(mapper *AreaMapper) *UserCounter {
	return &UserCounter{
		mapper: mapper,
		counts: make([]float64, mapper.numAreas()),
		mark:   make([]int64, mapper.numAreas()),
	}
}

// Observe consumes the next tweet (sorted by user), assigning it through
// the counter's own mapper.
func (c *UserCounter) Observe(t tweet.Tweet) error {
	return c.ObserveArea(t, c.mapper.Map(t.Point()))
}

// ObserveArea consumes the next tweet with its area assignment already
// resolved; area is the assigned area index, -1 for unassigned.
func (c *UserCounter) ObserveArea(t tweet.Tweet, area int) error {
	if c.started && t.UserID < c.prevUser {
		return fmt.Errorf("mobility: user counter stream out of order: user %d after %d", t.UserID, c.prevUser)
	}
	if !c.started || t.UserID != c.prevUser {
		if !c.started {
			c.firstUser = t.UserID
		}
		c.prevUser = t.UserID
		c.started = true
		c.serial++
	}
	if area >= 0 && c.mark[area] != c.serial {
		c.mark[area] = c.serial
		c.counts[area]++
	}
	return nil
}

// Counts returns the per-area unique user counts.
func (c *UserCounter) Counts() []float64 {
	return c.counts
}
