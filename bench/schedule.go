package main

import (
	"fmt"
	"math/rand/v2"
	"net/url"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
)

// query is one /v1 analysis request, kept structured so the same value
// renders the URL sent to the server and the core.Request given to the
// in-process oracle.
type query struct {
	endpoint string // stats, population, flows or models
	scale    string // national, state or metro; empty for stats
	from, to time.Time
}

func (q query) path() string {
	v := url.Values{}
	if q.scale != "" {
		v.Set("scale", q.scale)
	}
	if !q.from.IsZero() {
		v.Set("from", q.from.Format(time.RFC3339))
	}
	if !q.to.IsZero() {
		v.Set("to", q.to.Format(time.RFC3339))
	}
	p := "/v1/" + q.endpoint
	if len(v) > 0 {
		p += "?" + v.Encode()
	}
	return p
}

var (
	scaleNames = []string{"national", "state", "metro"}
	scaleOf    = map[string]census.Scale{
		"national": census.ScaleNational, "state": census.ScaleState, "metro": census.ScaleMetropolitan,
	}
	analysisOf = map[string]core.Analysis{
		"stats": core.AnalysisStats, "population": core.AnalysisPopulation,
		"flows": core.AnalysisFlows, "models": core.AnalysisMobility,
	}
)

// request is the core.Request mobserve builds from q's URL.
func (q query) request() core.Request {
	req := core.Request{Analyses: []core.Analysis{analysisOf[q.endpoint]}, From: q.from, To: q.to}
	if q.scale != "" {
		req.Scales = []census.Scale{scaleOf[q.scale]}
	}
	return req
}

// Request classes of the dashboard mix, named after what the server has
// to do for them.
const (
	classHit      = "hit"       // the repeated 24-URL panel: fits the 128-entry svcache
	classFoldDay  = "fold_day"  // hour-aligned 24 h window: whole buckets fold
	classFoldHour = "fold_hour" // unaligned 6 h window: residual edge-bucket scans
	classFoldSpan = "fold_span" // unaligned 2-8 week window: tier folds + two residuals
)

type scheduled struct {
	query
	class string
}

// dashboard draws the read-only traffic mix over a loaded history of
// `hours` hourly buckets: 50 % hit, 30 % fold_day, 15 % fold_hour, 5 %
// fold_span. A third of fold_day cycles a 512-URL set, a working set
// four times the cache, so it repeats and still never hits a FIFO
// cache; every other fold window is drawn fresh and never repeats.
type dashboard struct {
	c     *corpus
	hours int
	rng   *rand.Rand
	seen  map[string]bool
	panel []query
	cycle []query
	pos   int
}

func newDashboard(c *corpus, historyHours int, seed uint64) *dashboard {
	d := &dashboard{c: c, hours: historyHours, seen: map[string]bool{},
		rng: rand.New(rand.NewPCG(seed, 0x64617368))} // "dash"
	// The panel: the last 8 whole days of history x three endpoints.
	for day := 1; day <= 8; day++ {
		to := c.hourTime(historyHours - (day-1)*24)
		from := to.Add(-24 * time.Hour)
		d.panel = append(d.panel,
			query{endpoint: "population", scale: "state", from: from, to: to},
			query{endpoint: "flows", scale: "metro", from: from, to: to},
			query{endpoint: "stats", from: from, to: to})
	}
	for _, q := range d.panel {
		d.seen[q.path()] = true
	}
	for len(d.cycle) < 512 {
		d.cycle = append(d.cycle, d.fresh(d.dayWindow).query)
	}
	return d
}

// endpointScale draws an endpoint and a scale. Only windows of two
// weeks and more (long) ask for the two shapes whose analysis is
// undefined on too little data, which mobserve answers with a 500: the
// model fits need five positive flow pairs, which a day at state scale
// often lacks, and a metro population estimate needs a user within
// 0.5 km of some suburb centre, which the thinnest day of C20k lacks.
func (d *dashboard) endpointScale(long bool) (string, string) {
	eps := []string{"population", "flows", "stats", "models"}
	if !long {
		eps = eps[:3]
	}
	ep := eps[d.rng.IntN(len(eps))]
	switch {
	case ep == "stats":
		return ep, ""
	case ep == "population" && !long:
		return ep, scaleNames[d.rng.IntN(2)]
	}
	return ep, scaleNames[d.rng.IntN(len(scaleNames))]
}

func (d *dashboard) dayWindow() scheduled {
	h := d.rng.IntN(d.hours - 24)
	ep, sc := d.endpointScale(false)
	return scheduled{query{ep, sc, d.c.hourTime(h), d.c.hourTime(h + 24)}, classFoldDay}
}

func (d *dashboard) hourWindow() scheduled {
	h := d.rng.IntN(d.hours - 7)
	off := time.Duration(1+d.rng.IntN(59)) * time.Minute
	ep, sc := d.endpointScale(false)
	from := d.c.hourTime(h).Add(off)
	return scheduled{query{ep, sc, from, from.Add(6 * time.Hour)}, classFoldHour}
}

func (d *dashboard) spanWindow() scheduled {
	days := 14 + d.rng.IntN(43) // 2 to 8 weeks
	h := d.rng.IntN(d.hours - days*24 - 1)
	off := time.Duration(1+d.rng.IntN(59)) * time.Minute
	span := time.Duration(days) * 24 * time.Hour
	ep, sc := d.endpointScale(true)
	from := d.c.hourTime(h).Add(off)
	return scheduled{query{ep, sc, from, from.Add(span)}, classFoldSpan}
}

// fresh redraws until the URL is one this schedule has not issued.
func (d *dashboard) fresh(draw func() scheduled) scheduled {
	for {
		s := draw()
		if p := s.path(); !d.seen[p] {
			d.seen[p] = true
			return s
		}
	}
}

func (d *dashboard) next() scheduled {
	switch r := d.rng.IntN(100); {
	case r < 50:
		return scheduled{d.panel[d.rng.IntN(len(d.panel))], classHit}
	case r < 60:
		q := d.cycle[d.pos%len(d.cycle)]
		d.pos++
		return scheduled{q, classFoldDay}
	case r < 80:
		return d.fresh(d.dayWindow)
	case r < 95:
		return d.fresh(d.hourWindow)
	default:
		return d.fresh(d.spanWindow)
	}
}

// edgePanel is the fixed four-query dashboard an edge step re-asks once
// the hour ending at edgeHour has been posted.
func edgePanel(c *corpus, edgeHour int) []query {
	edge := c.hourTime(edgeHour)
	return []query{
		{endpoint: "stats", from: edge.Add(-7 * 24 * time.Hour), to: edge},
		{endpoint: "population", scale: "state", from: edge.Add(-24 * time.Hour), to: edge},
		{endpoint: "flows", scale: "metro", from: edge.Add(-7 * 24 * time.Hour), to: edge},
		{endpoint: "flows", scale: "national"},
	}
}

// scheduleHash fingerprints the first n requests of the dashboard mix
// and the first n edge-step bodies for a seed: same seed, same inputs.
func scheduleHash(c *corpus, historyHours int, seed uint64, n int) (string, error) {
	var h inputHash
	d := newDashboard(c, historyHours, seed)
	for i := 0; i < n; i++ {
		s := d.next()
		h.add("GET "+s.path()+" "+s.class, nil)
	}
	for hr := historyHours; hr < min(historyHours+n, c.hours()); hr++ {
		data, err := binaryBody(c.span(hr, hr+1))
		if err != nil {
			return "", err
		}
		h.add(fmt.Sprintf("POST /v1/ingest hour=%d", hr), data)
	}
	return h.String(), nil
}
