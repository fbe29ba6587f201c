// Package synth generates synthetic geo-tagged tweet streams that are
// statistically calibrated to the corpus described in the paper (Table I,
// Fig. 2): heavy-tailed per-user tweet counts, bursty inter-tweet waiting
// times spanning many decades, user home locations distributed according to
// census population with per-site Twitter-penetration bias, and inter-area
// trips driven by a ground-truth gravity kernel plus noise.
//
// This package is the substitution for the paper's 6.3M-tweet Twitter
// collection (Sept 2013 – Apr 2014), which cannot be redistributed; see
// DESIGN.md §1. Because the generator plants known ground truth (the
// gravity exponent, the per-site penetration bias), the downstream
// estimators can be *tested for recovery*, which the real corpus would not
// permit.
package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/randx"
	"geomob/internal/tweet"
)

// Site is one population centre of the synthetic world: either a city, a
// Sydney suburb, or the "rest of Sydney" remainder that keeps Sydney's
// total weight equal to its census population.
type Site struct {
	Name   string
	Center geo.Point
	Weight float64 // census population share represented by this site
	Bias   float64 // Twitter penetration multiplier (lognormal, planted)
	// Sigma is the spread (metres) of resident anchor points around the
	// centre: a user living at a site is pinned to a fixed anchor drawn
	// from this 2-D Gaussian, and their tweets jitter only tightly around
	// the anchor. This reproduces the paper's §III "edge sensitivity":
	// small search radii only capture the residents anchored near the
	// area centre.
	Sigma float64
}

// anchorTweetJitter returns the per-tweet GPS jitter around a user's
// anchor at this site, metres.
func (s Site) anchorTweetJitter() float64 {
	j := s.Sigma / 3
	if j > 400 {
		j = 400
	}
	if j < 50 {
		j = 50
	}
	return j
}

// Config parameterises a synthetic corpus. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	Seed1, Seed2 uint64 // PCG seed pair; the corpus is a pure function of the config

	NumUsers int // number of distinct users

	Start time.Time // collection window start (inclusive)
	End   time.Time // collection window end

	// Per-user tweet-count power law P(n) ∝ n^(−ActivityAlpha) on
	// [1, MaxTweetsPerUser] (Fig. 2a; the paper measures a mean of 13.3
	// tweets/user with maxima in the tens of thousands).
	ActivityAlpha    float64
	MaxTweetsPerUser int

	// Inter-tweet waiting times ~ bounded Pareto with exponent GapAlpha on
	// [GapMinSeconds, GapMaxSeconds], additionally capped per user at
	// GapCapFactor·period/n so that heavy tweeters fit the collection
	// window while their lifespans still cover most of it (Fig. 2b;
	// calibrated against Table I's 35.5 h average waiting time).
	GapAlpha      float64
	GapMinSeconds float64
	GapMaxSeconds float64
	GapCapFactor  float64

	// Movement model.
	Gamma            float64 // ground-truth gravity distance exponent
	MoveProb         float64 // probability a tweet event relocates the user
	ReturnProb       float64 // probability a relocation returns the user home
	NoiseProb        float64 // probability a tweet is at a uniform random point
	PenetrationSigma float64 // lognormal sigma of per-site Twitter bias
}

// DefaultConfig returns the calibrated configuration with the given user
// count and seeds. The full-size corpus uses 473,956 users (Table I); tests
// and examples scale NumUsers down.
func DefaultConfig(numUsers int, seed1, seed2 uint64) Config {
	return Config{
		Seed1:            seed1,
		Seed2:            seed2,
		NumUsers:         numUsers,
		Start:            time.Date(2013, time.September, 1, 0, 0, 0, 0, time.UTC),
		End:              time.Date(2014, time.April, 1, 0, 0, 0, 0, time.UTC),
		ActivityAlpha:    1.8,
		MaxTweetsPerUser: 10000,
		GapAlpha:         1.05,
		GapMinSeconds:    1,
		GapMaxSeconds:    90 * 24 * 3600,
		GapCapFactor:     30,
		Gamma:            2.0,
		MoveProb:         0.15,
		ReturnProb:       0.3,
		NoiseProb:        0.02,
		PenetrationSigma: 0.35,
	}
}

// Validate reports the first configuration problem, if any.
func (c Config) Validate() error {
	switch {
	case c.NumUsers <= 0:
		return fmt.Errorf("synth: NumUsers must be positive, got %d", c.NumUsers)
	case !c.End.After(c.Start):
		return fmt.Errorf("synth: End %v must be after Start %v", c.End, c.Start)
	case c.ActivityAlpha <= 1:
		return fmt.Errorf("synth: ActivityAlpha must exceed 1, got %v", c.ActivityAlpha)
	case c.MaxTweetsPerUser < 1:
		return fmt.Errorf("synth: MaxTweetsPerUser must be >= 1, got %d", c.MaxTweetsPerUser)
	case c.GapAlpha <= 0:
		return fmt.Errorf("synth: GapAlpha must be positive, got %v", c.GapAlpha)
	case c.GapMinSeconds <= 0 || c.GapMaxSeconds <= c.GapMinSeconds:
		return fmt.Errorf("synth: need 0 < GapMinSeconds < GapMaxSeconds, got %v, %v", c.GapMinSeconds, c.GapMaxSeconds)
	case c.GapCapFactor <= 0:
		return fmt.Errorf("synth: GapCapFactor must be positive, got %v", c.GapCapFactor)
	case c.Gamma < 0:
		return fmt.Errorf("synth: Gamma must be non-negative, got %v", c.Gamma)
	case c.MoveProb < 0 || c.MoveProb > 1:
		return fmt.Errorf("synth: MoveProb must lie in [0,1], got %v", c.MoveProb)
	case c.ReturnProb < 0 || c.ReturnProb > 1:
		return fmt.Errorf("synth: ReturnProb must lie in [0,1], got %v", c.ReturnProb)
	case c.NoiseProb < 0 || c.NoiseProb > 1:
		return fmt.Errorf("synth: NoiseProb must lie in [0,1], got %v", c.NoiseProb)
	case c.PenetrationSigma < 0:
		return fmt.Errorf("synth: PenetrationSigma must be >= 0, got %v", c.PenetrationSigma)
	}
	return nil
}

// Generator produces tweet streams for a config over the embedded
// Australian world model.
type Generator struct {
	cfg   Config
	sites []Site
	// gravityFrom[i] is the weighted-choice sampler over destination sites
	// for a user currently at site i (gravity kernel, built lazily).
	gravityFrom []*randx.WeightedChoice
	homeChooser *randx.WeightedChoice
}

// NewGenerator builds the world model (sites from the census gazetteer,
// penetration biases, gravity kernels) for the config.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sites, err := buildSites(cfg)
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, sites: sites}

	homeWeights := make([]float64, len(sites))
	for i, s := range sites {
		homeWeights[i] = s.Weight * s.Bias
	}
	g.homeChooser, err = randx.NewWeightedChoice(homeWeights)
	if err != nil {
		return nil, fmt.Errorf("synth: home weights: %w", err)
	}

	// Gravity kernel per origin: w(i→j) ∝ Weight_j / d_ij^Gamma.
	g.gravityFrom = make([]*randx.WeightedChoice, len(sites))
	for i := range sites {
		w := make([]float64, len(sites))
		for j := range sites {
			if i == j {
				continue
			}
			d := geo.Haversine(sites[i].Center, sites[j].Center) / 1000 // km
			if d < 1 {
				d = 1 // clamp sub-km site pairs to avoid singular weights
			}
			w[j] = sites[j].Weight / math.Pow(d, cfg.Gamma)
		}
		wc, err := randx.NewWeightedChoice(w)
		if err != nil {
			return nil, fmt.Errorf("synth: gravity weights for site %d: %w", i, err)
		}
		g.gravityFrom[i] = wc
	}
	return g, nil
}

// buildSites assembles the synthetic world from the census gazetteer:
// every national city, every NSW city not already present, the 20 Sydney
// suburbs, and a "Sydney (rest)" remainder so Sydney's total weight matches
// its census population. Per-site jitter grows sublinearly with population;
// per-site penetration bias is lognormal and fixed by the seed.
func buildSites(cfg Config) ([]Site, error) {
	gaz := census.Australia()
	biasRng := randx.New(cfg.Seed1^0x5eed_b1a5, cfg.Seed2^0x0b5e_55ed)

	national, err := gaz.Regions(census.ScaleNational)
	if err != nil {
		return nil, err
	}
	state, err := gaz.Regions(census.ScaleState)
	if err != nil {
		return nil, err
	}
	metro, err := gaz.Regions(census.ScaleMetropolitan)
	if err != nil {
		return nil, err
	}

	var sites []Site
	seen := map[string]bool{}
	addSite := func(name string, center geo.Point, weight float64, sigma float64) {
		sites = append(sites, Site{
			Name:   name,
			Center: center,
			Weight: weight,
			Bias:   randx.LogNormal(biasRng, 0, cfg.PenetrationSigma),
			Sigma:  sigma,
		})
		seen[name] = true
	}

	var sydney census.Area
	for _, a := range national.Areas {
		if a.Name == "Sydney" {
			sydney = a
			continue // Sydney is decomposed into suburbs + remainder below
		}
		addSite(a.Name, a.Center, float64(a.Population), citySigma(a.Population))
	}
	for _, a := range state.Areas {
		if a.Name == "Sydney" || seen[a.Name] {
			continue
		}
		// Albury appears nationally as Albury-Wodonga; treat separately by
		// name, they are distinct gazetteer entries at nearby coordinates.
		addSite(a.Name, a.Center, float64(a.Population), citySigma(a.Population))
	}
	if sydney.Population == 0 {
		return nil, fmt.Errorf("synth: national region set is missing Sydney")
	}
	var suburbTotal int
	for _, a := range metro.Areas {
		suburbTotal += a.Population
	}
	rest := sydney.Population - suburbTotal
	if rest <= 0 {
		return nil, fmt.Errorf("synth: Sydney suburbs (%d) exceed Sydney population (%d)", suburbTotal, sydney.Population)
	}
	// Sydney's remaining population is split two ways: a share lives in the
	// contiguous urban fabric around the named suburbs (scaled onto them
	// proportionally — the rescaling factor C absorbs the multiplier), and
	// the rest spreads widely across the metropolitan basin, whose
	// demographic centre sits near Parramatta, west of the CBD.
	suburbBoost := 1 + suburbFabricShare*float64(rest)/float64(suburbTotal)
	for _, a := range metro.Areas {
		// Suburbs differ in how concentrated their residents are around
		// the nominal centre (0.8–1.7 km anchor spread); this heterogeneity
		// is what makes very small search radii systematically biased
		// (Fig. 3b, §III edge-sensitivity discussion).
		sigma := 800 + 900*biasRng.Float64()
		addSite(a.Name, a.Center, float64(a.Population)*suburbBoost, sigma)
	}
	wide := (1 - suburbFabricShare) * float64(rest)
	addSite("Sydney (rest)", geo.Point{Lat: -33.8500, Lon: 151.0200}, wide, 12000)
	return sites, nil
}

// suburbFabricShare is the fraction of Sydney's non-top-20 population
// attributed to the urban fabric around the named suburbs.
const suburbFabricShare = 0.4

// citySigma maps a city population to a tweet-jitter radius in metres:
// larger cities sprawl further. Chosen so suburbs sit near 1 km and the
// largest cities near 8 km.
func citySigma(pop int) float64 {
	s := 500 * math.Pow(float64(pop)/10000, 0.3)
	if s < 500 {
		s = 500
	}
	if s > 8000 {
		s = 8000
	}
	return s
}

// Emit is the streaming callback type: it receives tweets in (user, time)
// order. Returning an error aborts generation.
type Emit func(tweet.Tweet) error

// splitmix64 is the SplitMix64 finaliser, used to derive well-separated
// per-user seed material from the config seeds and the user index.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// userRNG returns the dedicated random stream of user u. Each user owns an
// independent PCG stream derived from the config seeds, so generating a
// user is a pure function of (config, u) — the property that makes
// generateRange produce identical tweets regardless of how the user space
// is partitioned across shards.
func (g *Generator) userRNG(u int) *rand.Rand {
	h := splitmix64(uint64(u))
	return randx.New(g.cfg.Seed1^h, g.cfg.Seed2^splitmix64(h))
}

// Generate streams the whole corpus to emit in (user, time) order and
// returns the number of tweets produced.
func (g *Generator) Generate(emit Emit) (int, error) {
	return g.generateRange(0, g.cfg.NumUsers, emit)
}

// generateRange streams the tweets of users [lo, hi) to emit in
// (user, time) order and returns the number of tweets produced. Because
// every user draws from their own seeded random stream, the concatenation
// of generateRange over any partition of [0, NumUsers) is byte-for-byte the
// full Generate stream — the per-user-block parallel generation primitive.
func (g *Generator) generateRange(lo, hi int, emit Emit) (int, error) {
	cfg := g.cfg
	if lo < 0 || hi > cfg.NumUsers || lo > hi {
		return 0, fmt.Errorf("synth: user range [%d, %d) outside [0, %d)", lo, hi, cfg.NumUsers)
	}
	activity := randx.NewDiscretePowerLaw(cfg.ActivityAlpha, 1, cfg.MaxTweetsPerUser)

	period := cfg.End.Sub(cfg.Start).Seconds()
	startMS := cfg.Start.UnixMilli()
	endMS := cfg.End.UnixMilli()

	total := 0
	for u := lo; u < hi; u++ {
		userID := int64(u)
		rng := g.userRNG(u)
		// Tweet ids are allocated per user so they do not depend on how
		// many tweets earlier users produced.
		tweetID := userID * int64(cfg.MaxTweetsPerUser)
		n := activity.Sample(rng)
		home := g.homeChooser.Sample(rng)

		// Build the timestamp ladder: a uniform start plus bounded-Pareto
		// gaps, rescaled into the window if the raw span overflows it.
		gapMax := cfg.GapMaxSeconds
		if n > 1 {
			if cap := cfg.GapCapFactor * period / float64(n); cap < gapMax {
				gapMax = cap
			}
			if gapMax <= cfg.GapMinSeconds {
				gapMax = cfg.GapMinSeconds * 2
			}
		}
		offsets := make([]float64, n)
		var t float64
		for i := 0; i < n; i++ {
			if i > 0 {
				t += randx.BoundedPareto(rng, cfg.GapAlpha, cfg.GapMinSeconds, gapMax)
			}
			offsets[i] = t
		}
		span := offsets[n-1]
		slack := period - span
		if slack < 0 {
			// Rescale the whole ladder into 95% of the window.
			f := 0.95 * period / span
			for i := range offsets {
				offsets[i] *= f
			}
			slack = period - offsets[n-1]
		}
		startOff := rng.Float64() * slack

		// The user's residence is a fixed anchor inside the home site;
		// travel draws a fresh visit anchor per stay. Tweets jitter only
		// tightly around the current anchor (GPS noise + short local
		// trips), so area-assignment behaviour under small search radii
		// matches the paper's edge-sensitivity findings.
		homeAnchor := jitter(rng, g.sites[home].Center, g.sites[home].Sigma)
		site := home
		anchor := homeAnchor
		for i := 0; i < n; i++ {
			// Movement step: possibly relocate before tweeting.
			if rng.Float64() < cfg.MoveProb {
				if site != home && rng.Float64() < cfg.ReturnProb {
					site = home
					anchor = homeAnchor
				} else {
					site = g.gravityFrom[site].Sample(rng)
					anchor = jitter(rng, g.sites[site].Center, g.sites[site].Sigma)
				}
			}
			var p geo.Point
			if rng.Float64() < cfg.NoiseProb {
				p = randomPointInBBox(rng, geo.AustraliaBBox)
			} else {
				p = jitter(rng, anchor, g.sites[site].anchorTweetJitter())
			}
			ts := startMS + int64((startOff+offsets[i])*1000)
			if ts >= endMS {
				ts = endMS - 1
			}
			tw := tweet.Tweet{ID: tweetID, UserID: userID, TS: ts, Lat: p.Lat, Lon: p.Lon}
			tweetID++
			if err := emit(tw); err != nil {
				return total, fmt.Errorf("synth: emit: %w", err)
			}
			total++
		}
	}
	return total, nil
}

// GenerateAll materialises the corpus in memory. Intended for tests and
// examples; the full-size corpus should be streamed with Generate.
func (g *Generator) GenerateAll() ([]tweet.Tweet, error) {
	var out []tweet.Tweet
	_, err := g.Generate(func(t tweet.Tweet) error {
		out = append(out, t)
		return nil
	})
	return out, err
}

// Each implements tweet.Source, letting a Generator feed the Study
// pipeline directly without materialising the corpus.
func (g *Generator) Each(fn func(tweet.Tweet) error) error {
	_, err := g.Generate(fn)
	return err
}

// EachContext implements tweet.ContextSource: generation polls ctx every
// few thousand emitted tweets, so a cancelled study stops synthesising
// the rest of the corpus promptly.
func (g *Generator) EachContext(ctx context.Context, fn func(tweet.Tweet) error) error {
	_, err := g.Generate(ctxEmit(ctx, fn))
	return err
}

// ctxEmit wraps an emit callback with a periodic cancellation poll.
func ctxEmit(ctx context.Context, fn Emit) Emit {
	n := 0
	return func(t tweet.Tweet) error {
		if n++; n&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return fn(t)
	}
}

// Shards implements tweet.ShardedSource: contiguous user blocks, each
// generated independently from its users' dedicated random streams. The
// concatenation of the shards is exactly the Generate stream.
func (g *Generator) Shards(n int) ([]tweet.Source, error) {
	if n < 1 {
		return nil, fmt.Errorf("synth: shard count must be positive, got %d", n)
	}
	users := g.cfg.NumUsers
	if n > users {
		n = users
	}
	out := make([]tweet.Source, 0, n)
	lo := 0
	for k := 0; k < n; k++ {
		hi := lo + (users-lo)/(n-k)
		if hi > lo {
			out = append(out, rangeSource{g: g, lo: lo, hi: hi})
		}
		lo = hi
	}
	return out, nil
}

// rangeSource is one user block of a sharded Generator.
type rangeSource struct {
	g      *Generator
	lo, hi int
}

// Each implements tweet.Source over the block's user range.
func (r rangeSource) Each(fn func(tweet.Tweet) error) error {
	_, err := r.g.generateRange(r.lo, r.hi, fn)
	return err
}

// EachContext implements tweet.ContextSource over the block's user range.
func (r rangeSource) EachContext(ctx context.Context, fn func(tweet.Tweet) error) error {
	_, err := r.g.generateRange(r.lo, r.hi, ctxEmit(ctx, fn))
	return err
}

// jitter displaces a point by an isotropic 2-D Gaussian with standard
// deviation sigma metres, clamped into the study bounding box.
func jitter(rng *rand.Rand, c geo.Point, sigma float64) geo.Point {
	dN := rng.NormFloat64() * sigma
	dE := rng.NormFloat64() * sigma
	p := geo.Point{
		Lat: c.Lat + dN/geo.MetersPerDegreeLat,
		Lon: c.Lon + dE/geo.MetersPerDegreeLon(c.Lat),
	}
	return clampToBBox(p, geo.AustraliaBBox)
}

func randomPointInBBox(rng *rand.Rand, b geo.BBox) geo.Point {
	return geo.Point{
		Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
	}
}

func clampToBBox(p geo.Point, b geo.BBox) geo.Point {
	if p.Lat < b.MinLat {
		p.Lat = b.MinLat
	}
	if p.Lat > b.MaxLat {
		p.Lat = b.MaxLat
	}
	if p.Lon < b.MinLon {
		p.Lon = b.MinLon
	}
	if p.Lon > b.MaxLon {
		p.Lon = b.MaxLon
	}
	return p
}
