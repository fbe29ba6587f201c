package synth

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"geomob/internal/geo"
	"geomob/internal/stats"
	"geomob/internal/tweet"
)

func testConfig(users int) Config {
	return DefaultConfig(users, 42, 43)
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumUsers = 0 },
		func(c *Config) { c.End = c.Start },
		func(c *Config) { c.ActivityAlpha = 1 },
		func(c *Config) { c.MaxTweetsPerUser = 0 },
		func(c *Config) { c.GapAlpha = 0 },
		func(c *Config) { c.GapMinSeconds = 0 },
		func(c *Config) { c.GapMaxSeconds = c.GapMinSeconds },
		func(c *Config) { c.GapCapFactor = 0 },
		func(c *Config) { c.Gamma = -1 },
		func(c *Config) { c.MoveProb = 1.5 },
		func(c *Config) { c.ReturnProb = -0.1 },
		func(c *Config) { c.NoiseProb = 2 },
		func(c *Config) { c.PenetrationSigma = -1 },
	}
	for i, mut := range mutations {
		c := testConfig(100)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
}

func TestWorldModelSites(t *testing.T) {
	g, err := NewGenerator(testConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	sites := g.sites
	// 19 national (Sydney decomposed) + 16 extra NSW + 20 suburbs + rest.
	if len(sites) < 50 {
		t.Errorf("world has %d sites, expected >= 50", len(sites))
	}
	names := map[string]bool{}
	var totalWeight float64
	for _, s := range sites {
		if names[s.Name] {
			t.Errorf("duplicate site %q", s.Name)
		}
		names[s.Name] = true
		if s.Weight <= 0 || s.Bias <= 0 || s.Sigma <= 0 {
			t.Errorf("site %q has non-positive parameters: %+v", s.Name, s)
		}
		if !geo.AustraliaBBox.Contains(s.Center) {
			t.Errorf("site %q outside the study region", s.Name)
		}
		totalWeight += s.Weight
	}
	for _, want := range []string{"Melbourne", "Dubbo", "Blacktown", "Sydney (rest)"} {
		if !names[want] {
			t.Errorf("world model is missing %q", want)
		}
	}
	if names["Sydney"] {
		t.Error("Sydney itself must be decomposed, not a site")
	}
	// Total weight must be close to the union population (national total
	// plus the NSW additions).
	if totalWeight < 15e6 || totalWeight > 20e6 {
		t.Errorf("total site weight %.0f implausible", totalWeight)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := NewGenerator(testConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	a, err := g1.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tweet %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must give a different corpus.
	cfg := testConfig(200)
	cfg.Seed1 = 999
	g3, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g3.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical corpora")
		}
	}
}

func TestGenerateStructuralInvariants(t *testing.T) {
	cfg := testConfig(2000)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) < cfg.NumUsers {
		t.Fatalf("only %d tweets for %d users", len(tweets), cfg.NumUsers)
	}
	startMS := cfg.Start.UnixMilli()
	endMS := cfg.End.UnixMilli()
	ids := map[int64]bool{}
	users := map[int64]bool{}
	for i, tw := range tweets {
		if err := tw.Validate(); err != nil {
			t.Fatalf("tweet %d invalid: %v", i, err)
		}
		if ids[tw.ID] {
			t.Fatalf("duplicate tweet id %d", tw.ID)
		}
		ids[tw.ID] = true
		users[tw.UserID] = true
		if tw.TS < startMS || tw.TS >= endMS {
			t.Fatalf("tweet %d outside the collection window", i)
		}
		if !geo.AustraliaBBox.Contains(tw.Point()) {
			t.Fatalf("tweet %d outside Australia: %v", i, tw.Point())
		}
	}
	if len(users) != cfg.NumUsers {
		t.Errorf("%d distinct users, want %d", len(users), cfg.NumUsers)
	}
	// The stream must already be in (user, time) order.
	if !sort.IsSorted(tweet.ByUserTime(tweets)) {
		t.Error("stream not in (user, time) order")
	}
}

func TestActivityDistributionHeavyTail(t *testing.T) {
	cfg := testConfig(20000)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	if _, err := g.Generate(func(tw tweet.Tweet) error {
		counts[tw.UserID]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	perUser := make([]float64, 0, len(counts))
	var max float64
	for _, c := range counts {
		perUser = append(perUser, float64(c))
		if float64(c) > max {
			max = float64(c)
		}
	}
	mean, _ := stats.Mean(perUser)
	// Paper: 13.3 tweets/user on average. Accept the same regime.
	if mean < 5 || mean > 30 {
		t.Errorf("mean tweets/user = %.1f, want ~13", mean)
	}
	// Heavy tail: someone should tweet hundreds of times.
	if max < 300 {
		t.Errorf("max tweets/user = %v, tail too thin", max)
	}
	// MLE exponent on the tail should be near the configured 1.8.
	fit, err := stats.FitPowerLaw(perUser, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-cfg.ActivityAlpha) > 0.25 {
		t.Errorf("fitted activity alpha = %.2f, want ~%.2f", fit.Alpha, cfg.ActivityAlpha)
	}
}

func TestWaitingTimesSpanDecades(t *testing.T) {
	cfg := testConfig(5000)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(tweets); i++ {
		if tweets[i].UserID == tweets[i-1].UserID {
			if g := float64(tweets[i].TS-tweets[i-1].TS) / 1000; g > 0 {
				gaps = append(gaps, g)
			}
		}
	}
	if len(gaps) < 1000 {
		t.Fatalf("only %d gaps", len(gaps))
	}
	min, max := slices.Min(gaps), slices.Max(gaps)
	if max/min < 1e4 {
		t.Errorf("waiting times span only %.1f decades, want >= 4", math.Log10(max/min))
	}
	mean, _ := stats.Mean(gaps)
	// Paper: average waiting time 35.5 hours = 127,800 s. Same regime.
	if mean < 3600 || mean > 100*3600 {
		t.Errorf("mean waiting time = %.0f s, want hours-to-days regime", mean)
	}
}

func TestPopulationProxyCorrelatesWithCensus(t *testing.T) {
	// Users' home assignment must track site weights: count tweets near the
	// five biggest cities and check the ordering is broadly preserved.
	cfg := testConfig(20000)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cities := []struct {
		name   string
		center geo.Point
		pop    float64
	}{
		{"Sydney", geo.Point{Lat: -33.8688, Lon: 151.2093}, 4293000},
		{"Melbourne", geo.Point{Lat: -37.8136, Lon: 144.9631}, 4087000},
		{"Brisbane", geo.Point{Lat: -27.4698, Lon: 153.0251}, 2147000},
		{"Perth", geo.Point{Lat: -31.9523, Lon: 115.8613}, 1897000},
		{"Adelaide", geo.Point{Lat: -34.9285, Lon: 138.6007}, 1277000},
	}
	counts := make([]float64, len(cities))
	if _, err := g.Generate(func(tw tweet.Tweet) error {
		for i, c := range cities {
			if geo.Haversine(tw.Point(), c.center) < 50_000 {
				counts[i]++
				break
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pops := make([]float64, len(cities))
	for i, c := range cities {
		pops[i] = c.pop
	}
	r, err := stats.Pearson(counts, pops)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.7 {
		t.Errorf("tweet counts vs census correlation r = %.3f, want > 0.7", r)
	}
}

func TestEmitErrorAborts(t *testing.T) {
	g, err := NewGenerator(testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	n := 0
	_, err = g.Generate(func(tweet.Tweet) error {
		n++
		if n >= 10 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("emit error not propagated: %v", err)
	}
	if n != 10 {
		t.Errorf("generation continued after error: %d emits", n)
	}
}

func TestNewGeneratorRejectsBadConfig(t *testing.T) {
	cfg := testConfig(10)
	cfg.NumUsers = -1
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestCollectionWindowMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(10, 1, 2)
	if cfg.Start.Month() != time.September || cfg.Start.Year() != 2013 {
		t.Errorf("default window start %v, want Sept 2013", cfg.Start)
	}
	if cfg.End.Month() != time.April || cfg.End.Year() != 2014 {
		t.Errorf("default window end %v, want Apr 2014", cfg.End)
	}
}
