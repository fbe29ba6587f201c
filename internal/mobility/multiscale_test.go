package mobility

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// studyMappers builds the four mappers the full study runs: the three
// paper scales at their default radii plus the fixed metro 0.5 km variant.
func studyMappers(t *testing.T) []*AreaMapper {
	t.Helper()
	var out []*AreaMapper
	for _, scale := range census.Scales() {
		rs, err := census.Australia().Regions(scale)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewAreaMapper(rs, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	metroRS, err := census.Australia().Regions(census.ScaleMetropolitan)
	if err != nil {
		t.Fatal(err)
	}
	metro500, err := NewAreaMapper(metroRS, 500)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, metro500)
}

// TestMultiScaleMapperMatchesPerScale: MapAll must agree with calling each
// mapper's Map individually, across random points including unmappable
// ones.
func TestMultiScaleMapperMatchesPerScale(t *testing.T) {
	mappers := studyMappers(t)
	msm, err := NewMultiScaleMapper(mappers...)
	if err != nil {
		t.Fatal(err)
	}
	if msm.Len() != len(mappers) {
		t.Fatalf("Len = %d, want %d", msm.Len(), len(mappers))
	}
	rng := rand.New(rand.NewPCG(81, 82))
	out := make([]int, msm.Len())
	for i := 0; i < 20000; i++ {
		p := geo.Point{
			Lat: -45 + rng.Float64()*36,
			Lon: 112 + rng.Float64()*48,
		}
		msm.MapAll(p, out)
		for j, m := range mappers {
			if want := m.Map(p); out[j] != want {
				t.Fatalf("point %v slot %d: MapAll = %d, Map = %d", p, j, out[j], want)
			}
		}
	}
}

func TestMultiScaleMapperRejectsBadInput(t *testing.T) {
	if _, err := NewMultiScaleMapper(); err == nil {
		t.Error("empty mapper list should fail")
	}
	if _, err := NewMultiScaleMapper(nil); err == nil {
		t.Error("nil mapper should fail")
	}
}

// TestMultiScaleMapperNoAllocs: the per-tweet multi-scale assignment is
// the pipeline's hot path and must not touch the heap.
func TestMultiScaleMapperNoAllocs(t *testing.T) {
	msm, err := NewMultiScaleMapper(studyMappers(t)...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(83, 84))
	queries := make([]geo.Point, 512)
	for i := range queries {
		queries[i] = geo.Point{Lat: -45 + rng.Float64()*36, Lon: 112 + rng.Float64()*48}
	}
	out := make([]int, msm.Len())
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		msm.MapAll(queries[i%len(queries)], out)
		i++
	})
	if allocs != 0 {
		t.Errorf("MapAll allocated %v times per op, want 0", allocs)
	}
}

// syntheticStream builds a small (user, time)-ordered stream hopping
// between area centres and unmappable points.
func syntheticStream(rng *rand.Rand, m *AreaMapper, users, perUser int) []tweet.Tweet {
	var tweets []tweet.Tweet
	ts := int64(1_378_000_000_000)
	id := int64(0)
	for u := 0; u < users; u++ {
		for k := 0; k < perUser; k++ {
			ts += int64(rng.IntN(100_000))
			var p geo.Point
			if rng.IntN(5) == 0 {
				p = geo.Point{Lat: -25, Lon: 131} // deep outback, unmapped
			} else {
				c := m.Area(rng.IntN(m.numAreas())).Center
				p = testx.Destination(c, rng.Float64()*360, rng.Float64()*m.Radius()*1.2)
			}
			tweets = append(tweets, tweet.Tweet{
				ID: id, UserID: int64(u), TS: ts, Lat: p.Lat, Lon: p.Lon,
			})
			id++
		}
	}
	return tweets
}

// TestObserveAreaMatchesObserve: feeding precomputed assignments through
// ObserveArea must reproduce Observe exactly, for the extractor and the
// user counter alike.
func TestObserveAreaMatchesObserve(t *testing.T) {
	m := nationalMapper(t)
	rng := rand.New(rand.NewPCG(85, 86))
	tweets := syntheticStream(rng, m, 40, 30)

	extA, extB := NewExtractor(m), NewExtractor(m)
	cntA, cntB := NewUserCounter(m), NewUserCounter(m)
	for _, tw := range tweets {
		if err := extA.Observe(tw); err != nil {
			t.Fatal(err)
		}
		if err := cntA.Observe(tw); err != nil {
			t.Fatal(err)
		}
		area := m.Map(tw.Point())
		if err := extB.ObserveArea(tw, area); err != nil {
			t.Fatal(err)
		}
		if err := cntB.ObserveArea(tw, area); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(extA.Flows(), extB.Flows()) {
		t.Error("ObserveArea flows differ from Observe")
	}
	if !reflect.DeepEqual(extA.Stats(), extB.Stats()) {
		t.Error("ObserveArea stats differ from Observe")
	}
	if !reflect.DeepEqual(cntA.Counts(), cntB.Counts()) {
		t.Error("ObserveArea counts differ from Observe")
	}
}

// TestFlowExtractorMatchesFullFlows: the lean extractor must produce the
// identical flow matrix and tweet/user counters while skipping the
// trajectory series.
func TestFlowExtractorMatchesFullFlows(t *testing.T) {
	m := nationalMapper(t)
	rng := rand.New(rand.NewPCG(87, 88))
	tweets := syntheticStream(rng, m, 40, 25)

	full, lean := NewExtractor(m), NewFlowExtractor(m)
	for _, tw := range tweets {
		if err := full.Observe(tw); err != nil {
			t.Fatal(err)
		}
		if err := lean.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(full.Flows(), lean.Flows()) {
		t.Error("lean flow matrix differs from the full extractor's")
	}
	fs, ls := full.Stats(), lean.Stats()
	if ls.Tweets != fs.Tweets || ls.MappedTweets != fs.MappedTweets || ls.Users != fs.Users {
		t.Errorf("lean counters differ: %d/%d/%d vs %d/%d/%d",
			ls.Tweets, ls.MappedTweets, ls.Users, fs.Tweets, fs.MappedTweets, fs.Users)
	}
	if ls.WaitMs != 0 || len(ls.TweetsPerUser) != 0 || len(ls.GyrationKM) != 0 {
		t.Error("lean extractor accumulated trajectory series")
	}
}

// TestUserCounterMatchesBrute: the epoch-stamped counter must equal a
// brute-force distinct-(user, area) count.
func TestUserCounterMatchesBrute(t *testing.T) {
	m := nationalMapper(t)
	rng := rand.New(rand.NewPCG(89, 90))
	tweets := syntheticStream(rng, m, 60, 20)

	c := NewUserCounter(m)
	brute := map[[2]int64]bool{}
	for _, tw := range tweets {
		if err := c.Observe(tw); err != nil {
			t.Fatal(err)
		}
		if a := m.Map(tw.Point()); a >= 0 {
			brute[[2]int64{tw.UserID, int64(a)}] = true
		}
	}
	want := make([]float64, m.numAreas())
	for k := range brute {
		want[k[1]]++
	}
	if !reflect.DeepEqual(c.Counts(), want) {
		t.Errorf("counts = %v, want %v", c.Counts(), want)
	}
}
