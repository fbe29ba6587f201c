package main

import (
	"strings"
	"testing"
	"time"

	"geomob/internal/tweet"
)

// A small corpus keeps these fast; the schedule only needs its clock.
func testCorpus(t *testing.T, seed uint64) *corpus {
	t.Helper()
	c, err := genCorpus(5000, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSameSeedSameInputs(t *testing.T) {
	const history = 120 * 24
	h := func(seed uint64) string {
		s, err := scheduleHash(testCorpus(t, seed), history, seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, again, b := h(7), h(7), h(8)
	if a != again {
		t.Errorf("seed 7 hashed to %s and then to %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 7 and 8 both hashed to %s", a)
	}
}

func TestCorpusIsTimeOrderedAndQuantised(t *testing.T) {
	c := testCorpus(t, 3)
	if n := len(c.tweets); n < 4990 || n > 5000 {
		t.Fatalf("corpus of %d tweets, want (all but) exactly 5000", n)
	}
	if c.hours() != 212*24 {
		t.Fatalf("corpus spans %d hours, want %d", c.hours(), 212*24)
	}
	for i := 1; i < len(c.tweets); i++ {
		if c.tweets[i].TS < c.tweets[i-1].TS {
			t.Fatalf("tweet %d is earlier than the one before it", i)
		}
	}
	total := 0
	for h := 0; h < c.hours(); h++ {
		for _, tw := range c.span(h, h+1) {
			if tw.TS < c.hourTime(h).UnixMilli() || tw.TS >= c.hourTime(h+1).UnixMilli() {
				t.Fatalf("hour %d holds a tweet of another hour", h)
			}
			total++
		}
	}
	if total != len(c.tweets) || c.upTo(c.hours()) != len(c.tweets) {
		t.Errorf("hours hold %d of %d tweets", total, len(c.tweets))
	}
	// Coordinates already sit on the store's microdegree grid, so a
	// restart that replays the store changes no answer.
	for _, tw := range c.tweets {
		if tweet.DegreesFromMicro(tweet.Microdegrees(tw.Lat)) != tw.Lat ||
			tweet.DegreesFromMicro(tweet.Microdegrees(tw.Lon)) != tw.Lon {
			t.Fatalf("tweet %d at (%v, %v) is off the microdegree grid", tw.ID, tw.Lat, tw.Lon)
		}
	}
	data, err := binaryBody(c.span(0, 24))
	if err != nil {
		t.Fatal(err)
	}
	text, err := ndjsonBody(c.span(0, 24))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || strings.Count(string(text), "\n") != len(c.span(0, 24)) {
		t.Errorf("bodies of day 0: %d binary bytes, %d NDJSON lines for %d tweets",
			len(data), strings.Count(string(text), "\n"), len(c.span(0, 24)))
	}
}

func TestDashboardMix(t *testing.T) {
	c := testCorpus(t, 5)
	const history = 120 * 24
	d := newDashboard(c, history, 5)
	if len(d.panel) != 24 || len(d.cycle) != 512 {
		t.Fatalf("panel of %d URLs and cycle of %d, want 24 and 512", len(d.panel), len(d.cycle))
	}
	edge := c.hourTime(history)
	count := map[string]int{}
	fresh := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		s := d.next()
		count[s.class]++
		if s.to.After(edge) || s.from.Before(c.hourTime(0)) {
			t.Fatalf("%s reaches outside the loaded history", s.path())
		}
		long := s.to.Sub(s.from) >= 14*24*time.Hour
		if !long && (s.endpoint == "models" || (s.endpoint == "population" && s.scale == "metro")) {
			t.Fatalf("%s asks a shape that is undefined on short windows", s.path())
		}
		switch s.class {
		case classHit:
		case classFoldDay:
			if s.to.Sub(s.from) != 24*time.Hour || s.from.Minute() != 0 {
				t.Fatalf("fold_day window %s is not an hour-aligned day", s.path())
			}
			fresh[s.path()]++
		default:
			if s.from.Minute() == 0 {
				t.Fatalf("%s window %s is hour-aligned", s.class, s.path())
			}
			if fresh[s.path()]++; fresh[s.path()] > 1 {
				t.Fatalf("%s repeated %s", s.class, s.path())
			}
		}
	}
	for class, share := range map[string]float64{classHit: 0.50, classFoldDay: 0.30, classFoldHour: 0.15, classFoldSpan: 0.05} {
		if got := float64(count[class]) / n; got < share-0.02 || got > share+0.02 {
			t.Errorf("%s is %.3f of the mix, want about %.2f", class, got, share)
		}
	}
	// Only the cycled set repeats among the day windows, and it is
	// larger than the cache.
	repeated := 0
	for _, k := range fresh {
		if k > 1 {
			repeated++
		}
	}
	if repeated == 0 || repeated > 512 {
		t.Errorf("%d day windows repeated, want between 1 and 512 (the cycled set)", repeated)
	}
}

func TestEdgePanel(t *testing.T) {
	c := testCorpus(t, 5)
	p := edgePanel(c, 3000)
	if len(p) != 4 {
		t.Fatalf("panel of %d queries, want 4", len(p))
	}
	if got, want := p[0].path(), "/v1/stats?from="; !strings.HasPrefix(got, want) {
		t.Errorf("first panel query is %s, want the freshness-checked %s...", got, want)
	}
	if p[3].path() != "/v1/flows?scale=national" {
		t.Errorf("last panel query is %s, want the unbounded national flows", p[3].path())
	}
	if !p[0].to.Equal(c.hourTime(3000)) || p[0].to.Sub(p[0].from) != 7*24*time.Hour {
		t.Errorf("stats window %v..%v does not end at the edge after 7 days", p[0].from, p[0].to)
	}
}
