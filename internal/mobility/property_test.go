package mobility

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geomob/internal/census"
	"geomob/internal/tweet"
)

// randomWalk is a quick.Generator producing multi-user (user, time)-ordered
// streams whose tweets sit exactly on national area centres, so the area
// assignment is unambiguous and flow accounting can be checked exactly.
type randomWalk []tweet.Tweet

// Generate implements quick.Generator (math/rand v1 signature).
func (randomWalk) Generate(r *rand.Rand, size int) reflect.Value {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		panic(err)
	}
	nUsers := 1 + r.Intn(5)
	var stream randomWalk
	var id int64
	for u := 0; u < nUsers; u++ {
		steps := 1 + r.Intn(size*2+1)
		ts := int64(1_000_000 + r.Intn(1000))
		for s := 0; s < steps; s++ {
			area := rs.Areas[r.Intn(rs.Len())]
			ts += int64(1 + r.Intn(60_000))
			stream = append(stream, tweet.Tweet{
				ID: id, UserID: int64(u), TS: ts,
				Lat: area.Center.Lat, Lon: area.Center.Lon,
			})
			id++
		}
	}
	return reflect.ValueOf(stream)
}

// TestPropertyFlowConservation: total off-diagonal flow + stays equals the
// number of consecutive same-user pairs, for any walk over area centres.
func TestPropertyFlowConservation(t *testing.T) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	f := func(stream randomWalk) bool {
		mapper, err := NewAreaMapper(rs, 0)
		if err != nil {
			return false
		}
		e := NewExtractor(mapper)
		pairs := 0
		var prevUser int64 = -1
		for _, tw := range stream {
			if tw.UserID == prevUser {
				pairs++
			}
			prevUser = tw.UserID
			if err := e.Observe(tw); err != nil {
				return false
			}
		}
		flows := e.Flows()
		var total float64
		for i := range flows.Flows {
			for j := range flows.Flows[i] {
				total += flows.Flows[i][j]
			}
		}
		for _, s := range flows.Stays {
			total += s
		}
		return int(total) == pairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUserCounterBounds: each area's unique-user count never
// exceeds the number of distinct users, and the per-area counts sum to at
// most users × areas.
func TestPropertyUserCounterBounds(t *testing.T) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	f := func(stream randomWalk) bool {
		mapper, err := NewAreaMapper(rs, 0)
		if err != nil {
			return false
		}
		c := NewUserCounter(mapper)
		users := map[int64]bool{}
		for _, tw := range stream {
			users[tw.UserID] = true
			if err := c.Observe(tw); err != nil {
				return false
			}
		}
		counts := c.Counts()
		for _, v := range counts {
			if v < 0 || v > float64(len(users)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEndToEndHandCraftedFlows drives the full extraction on a stream with
// exactly known ground truth.
func TestEndToEndHandCraftedFlows(t *testing.T) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewAreaMapper(rs, 0)
	if err != nil {
		t.Fatal(err)
	}
	syd := rs.Index("Sydney")
	mel := rs.Index("Melbourne")
	bri := rs.Index("Brisbane")
	at := func(i int) (float64, float64) {
		return rs.Areas[i].Center.Lat, rs.Areas[i].Center.Lon
	}
	var stream []tweet.Tweet
	add := func(user int64, ts int64, area int) {
		lat, lon := at(area)
		stream = append(stream, tweet.Tweet{
			ID: int64(len(stream)), UserID: user, TS: ts, Lat: lat, Lon: lon,
		})
	}
	// User 0: Sydney → Sydney → Melbourne → Sydney.
	add(0, 1000, syd)
	add(0, 2000, syd)
	add(0, 3000, mel)
	add(0, 4000, syd)
	// User 1: Brisbane → Melbourne → Melbourne.
	add(1, 1500, bri)
	add(1, 2500, mel)
	add(1, 3500, mel)

	e := NewExtractor(mapper)
	for _, tw := range stream {
		if err := e.Observe(tw); err != nil {
			t.Fatal(err)
		}
	}
	flows := e.Flows()
	type expect struct {
		i, j int
		want float64
	}
	for _, c := range []expect{
		{syd, mel, 1}, {mel, syd, 1}, {bri, mel, 1},
		{syd, bri, 0}, {mel, bri, 0},
	} {
		if got := flows.Flows[c.i][c.j]; got != c.want {
			t.Errorf("flow %s→%s = %v, want %v",
				rs.Areas[c.i].Name, rs.Areas[c.j].Name, got, c.want)
		}
	}
	if flows.Stays[syd] != 1 || flows.Stays[mel] != 1 {
		t.Errorf("stays wrong: syd=%v mel=%v", flows.Stays[syd], flows.Stays[mel])
	}
	st := e.Stats()
	if st.Users != 2 || st.Tweets != 7 {
		t.Errorf("stats: %+v", st)
	}
	if st.WaitMs != 3000+2000 {
		t.Errorf("WaitMs = %d, want 5000", st.WaitMs)
	}
	disps := DisplacementSeries(stream)
	if len(disps) != 5 {
		t.Fatalf("displacements: %v", disps)
	}
	// Sydney→Melbourne displacement ~713 km appears twice (out and back).
	var far int
	for _, d := range disps {
		if d > 700 && d < 730 {
			far++
		}
	}
	if far != 2 {
		t.Errorf("expected 2 Sydney–Melbourne displacements, got %d (%v)", far, disps)
	}
}
