package mobility

import (
	"slices"
	"testing"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

func nationalMapper(t *testing.T) *AreaMapper {
	t.Helper()
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewAreaMapper(rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAreaMapperDefaults(t *testing.T) {
	m := nationalMapper(t)
	if m.Radius() != 50_000 {
		t.Errorf("national default radius = %v, want 50000", m.Radius())
	}
	if m.numAreas() != 20 {
		t.Errorf("NumAreas = %d", m.numAreas())
	}
}

func TestAreaMapperAssignment(t *testing.T) {
	m := nationalMapper(t)
	sydneyIdx := -1
	for i := 0; i < m.numAreas(); i++ {
		if m.Area(i).Name == "Sydney" {
			sydneyIdx = i
		}
	}
	if sydneyIdx < 0 {
		t.Fatal("no Sydney in mapper")
	}
	sydney := m.Area(sydneyIdx).Center
	if got := m.Map(sydney); got != sydneyIdx {
		t.Errorf("CBD maps to %d, want %d", got, sydneyIdx)
	}
	// 30 km out is still within the 50 km radius.
	if got := m.Map(testx.Destination(sydney, 90, 30_000)); got != sydneyIdx {
		t.Errorf("30km point maps to %d", got)
	}
	// Deep outback: no area within 50 km.
	if got := m.Map(geo.Point{Lat: -25.0, Lon: 131.0}); got != -1 {
		t.Errorf("outback point maps to %d, want -1", got)
	}
}

func TestAreaMapperCustomRadius(t *testing.T) {
	rs, _ := census.Australia().Regions(census.ScaleMetropolitan)
	m, err := NewAreaMapper(rs, 500)
	if err != nil {
		t.Fatal(err)
	}
	if m.Radius() != 500 {
		t.Errorf("radius = %v", m.Radius())
	}
	center := m.Area(0).Center
	if m.Map(testx.Destination(center, 0, 400)) != 0 {
		t.Error("400 m point should map inside a 500 m radius")
	}
	if m.Map(testx.Destination(center, 0, 1500)) != -1 {
		t.Error("1.5 km point should not map inside a 500 m radius")
	}
}

func TestAreaMapperErrors(t *testing.T) {
	if _, err := NewAreaMapper(census.RegionSet{}, 0); err == nil {
		t.Error("empty region set should fail")
	}
	rs, _ := census.Australia().Regions(census.ScaleNational)
	if _, err := NewAreaMapper(rs, -1); err == nil {
		t.Error("negative radius should fail")
	}
}

// streamTweets builds a (user, time)-ordered stream visiting the given area
// centres in sequence for one user.
func streamTweets(m *AreaMapper, userID int64, startTS int64, areaIdxs ...int) []tweet.Tweet {
	out := make([]tweet.Tweet, len(areaIdxs))
	for i, a := range areaIdxs {
		p := m.Area(a).Center
		out[i] = tweet.Tweet{
			ID: int64(i), UserID: userID, TS: startTS + int64(i)*60_000,
			Lat: p.Lat, Lon: p.Lon,
		}
	}
	return out
}

func TestExtractorCountsConsecutivePairs(t *testing.T) {
	m := nationalMapper(t)
	e := NewExtractor(m)
	// User 1: A→B→B→C produces flows A→B (1), B→C (1), stay at B (1).
	for _, tw := range streamTweets(m, 1, 1_000_000, 0, 1, 1, 2) {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	// User 2: C→A produces C→A (1).
	for _, tw := range streamTweets(m, 2, 1_000_000, 2, 0) {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Flows()
	if f.Flows[0][1] != 1 || f.Flows[1][2] != 1 || f.Flows[2][0] != 1 {
		t.Errorf("flows wrong: %v", f.Flows)
	}
	if f.Stays[1] != 1 {
		t.Errorf("stays wrong: %v", f.Stays)
	}
	if f.Total() != 3 {
		t.Errorf("total = %v, want 3", f.Total())
	}
	// No cross-user pair: last tweet of user 1 (C) and first of user 2 (C)
	// must not create a flow.
	if f.Flows[2][2] != 0 {
		t.Error("self-flow recorded in off-diagonal")
	}
}

func TestExtractorSkipsUnmappedEnds(t *testing.T) {
	m := nationalMapper(t)
	e := NewExtractor(m)
	sydney := m.Area(0).Center
	outback := geo.Point{Lat: -25, Lon: 131}
	stream := []tweet.Tweet{
		{ID: 1, UserID: 1, TS: 1000, Lat: sydney.Lat, Lon: sydney.Lon},
		{ID: 2, UserID: 1, TS: 2000, Lat: outback.Lat, Lon: outback.Lon},
		{ID: 3, UserID: 1, TS: 3000, Lat: sydney.Lat, Lon: sydney.Lon},
	}
	for _, tw := range stream {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Flows()
	if f.Total() != 0 {
		t.Errorf("unmapped middle tweet should break the pair chain, total=%v", f.Total())
	}
	s := e.Stats()
	if s.Tweets != 3 || s.MappedTweets != 2 {
		t.Errorf("stats: %+v", s)
	}
}

func TestExtractorRejectsOutOfOrder(t *testing.T) {
	m := nationalMapper(t)
	e := NewExtractor(m)
	p := m.Area(0).Center
	if err := e.Observe(tweet.Tweet{ID: 1, UserID: 5, TS: 2000, Lat: p.Lat, Lon: p.Lon}); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(tweet.Tweet{ID: 2, UserID: 5, TS: 1000, Lat: p.Lat, Lon: p.Lon}); err == nil {
		t.Error("time regression should be rejected")
	}
	e2 := NewExtractor(m)
	if err := e2.Observe(tweet.Tweet{ID: 1, UserID: 5, TS: 1000, Lat: p.Lat, Lon: p.Lon}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Observe(tweet.Tweet{ID: 2, UserID: 3, TS: 1000, Lat: p.Lat, Lon: p.Lon}); err == nil {
		t.Error("user regression should be rejected")
	}
}

func TestExtractorStats(t *testing.T) {
	m := nationalMapper(t)
	e := NewExtractor(m)
	// Two users: 3 tweets and 2 tweets, gaps of 60 s each.
	for _, tw := range streamTweets(m, 1, 1_000_000, 0, 1, 2) {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	for _, tw := range streamTweets(m, 2, 5_000_000, 3, 4) {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Users != 2 {
		t.Errorf("Users = %d", s.Users)
	}
	if len(s.TweetsPerUser) != 2 || s.TweetsPerUser[0] != 3 || s.TweetsPerUser[1] != 2 {
		t.Errorf("TweetsPerUser = %v", s.TweetsPerUser)
	}
	// 2 gaps for user 1 + 1 gap for user 2: the gap between the users'
	// streams (4 000 s) must not be counted.
	if s.WaitMs != 3*60_000 {
		t.Errorf("WaitMs = %d, want 180000", s.WaitMs)
	}
	stream := append(streamTweets(m, 1, 1_000_000, 0, 1, 2), streamTweets(m, 2, 5_000_000, 3, 4)...)
	if gaps := WaitingSeries(stream); !slices.Equal(gaps, []float64{60, 60, 60}) {
		t.Errorf("WaitingSeries = %v, want three gaps of 60 s", gaps)
	}
	if len(s.CellsPerUser) != 2 || s.CellsPerUser[0] < 2 {
		t.Errorf("CellsPerUser = %v", s.CellsPerUser)
	}
}

func TestStatsIdempotentFinalisation(t *testing.T) {
	m := nationalMapper(t)
	e := NewExtractor(m)
	for _, tw := range streamTweets(m, 1, 1_000, 0, 1) {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	s1 := e.Stats()
	s2 := e.Stats()
	if len(s1.TweetsPerUser) != 1 || len(s2.TweetsPerUser) != 1 {
		t.Errorf("double finalisation corrupted stats: %v vs %v", s1.TweetsPerUser, s2.TweetsPerUser)
	}
	f := e.Flows()
	if f.Total() != 1 {
		t.Errorf("total = %v", f.Total())
	}
}

func TestUserCounter(t *testing.T) {
	m := nationalMapper(t)
	c := NewUserCounter(m)
	// User 1 tweets twice in Sydney (area 0) and once in Melbourne (1):
	// counts once for each area. User 2 tweets once in Melbourne.
	stream := append(streamTweets(m, 1, 1000, 0, 0, 1), streamTweets(m, 2, 9000, 1)...)
	for _, tw := range stream {
		if err := c.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	counts := c.Counts()
	if counts[0] != 1 {
		t.Errorf("area 0 users = %v, want 1", counts[0])
	}
	if counts[1] != 2 {
		t.Errorf("area 1 users = %v, want 2", counts[1])
	}
}

func TestUserCounterRejectsOutOfOrder(t *testing.T) {
	m := nationalMapper(t)
	c := NewUserCounter(m)
	p := m.Area(0).Center
	if err := c.Observe(tweet.Tweet{ID: 1, UserID: 5, TS: 1, Lat: p.Lat, Lon: p.Lon}); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(tweet.Tweet{ID: 2, UserID: 4, TS: 2, Lat: p.Lat, Lon: p.Lon}); err == nil {
		t.Error("user regression should be rejected")
	}
}

func TestFlowMatrixPairs(t *testing.T) {
	rs, _ := census.Australia().Regions(census.ScaleNational)
	f := NewFlowMatrix(rs.Areas)
	f.Flows[0][1] = 5
	f.Flows[1][0] = 3
	f.Flows[2][2] = 9 // diagonal must be ignored
	src, dst, flow := f.Pairs()
	if len(src) != 2 {
		t.Fatalf("pairs = %v %v %v", src, dst, flow)
	}
	if src[0] != 0 || dst[0] != 1 || flow[0] != 5 {
		t.Errorf("first pair wrong: %v %v %v", src, dst, flow)
	}
	if f.Total() != 8 {
		t.Errorf("total = %v", f.Total())
	}
}

func TestRadiusOfGyration(t *testing.T) {
	m := nationalMapper(t)
	// User 1: all tweets at one point → r_g = 0.
	e := NewExtractor(m)
	p := m.Area(0).Center
	for i := 0; i < 5; i++ {
		if err := e.Observe(tweet.Tweet{ID: int64(i), UserID: 1, TS: int64(1000 + i), Lat: p.Lat, Lon: p.Lon}); err != nil {
			t.Fatal(err)
		}
	}
	// User 2: split evenly between Sydney and Melbourne → r_g ≈ half the
	// chord distance (~356 km for the ~713 km pair).
	syd := m.Area(0).Center
	var melIdx int
	for i := 0; i < m.numAreas(); i++ {
		if m.Area(i).Name == "Melbourne" {
			melIdx = i
		}
	}
	mel := m.Area(melIdx).Center
	stream := []tweet.Tweet{
		{ID: 10, UserID: 2, TS: 1000, Lat: syd.Lat, Lon: syd.Lon},
		{ID: 11, UserID: 2, TS: 2000, Lat: mel.Lat, Lon: mel.Lon},
		{ID: 12, UserID: 2, TS: 3000, Lat: syd.Lat, Lon: syd.Lon},
		{ID: 13, UserID: 2, TS: 4000, Lat: mel.Lat, Lon: mel.Lon},
	}
	for _, tw := range stream {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if len(st.GyrationKM) != 2 {
		t.Fatalf("gyration entries: %v", st.GyrationKM)
	}
	if st.GyrationKM[0] > 0.001 {
		t.Errorf("stationary user r_g = %v, want ~0", st.GyrationKM[0])
	}
	d := geo.Haversine(syd, mel) / 1000
	if got := st.GyrationKM[1]; got < d/2*0.95 || got > d/2*1.05 {
		t.Errorf("two-city user r_g = %v km, want ~%v", got, d/2)
	}
}
