package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/tweet"
)

// The moving-edge contract (DESIGN.md §11): an hourly append rebuilds one
// bucket partial and no rollup group; a group is merged once, when the
// ring moves past it, and again only when a late arrival lands in it.

const hourMs = int64(time.Hour / time.Millisecond)

// edgeCities are capital-city centres, so every scale assigns them.
var edgeCities = [][2]float64{
	{-33.8688, 151.2093}, {-37.8136, 144.9631}, {-27.4698, 153.0251},
	{-31.9505, 115.8605}, {-34.9285, 138.6007},
}

// edgeHour is the feed of hourly bucket idx: three of nine users tweet,
// each hopping between cities, so every hour holds records and every
// user has cross-bucket (never interior) transitions.
func edgeHour(idx int64) []tweet.Tweet {
	var out []tweet.Tweet
	for u := int64(0); u < 9; u++ {
		if (u+idx)%3 != 0 {
			continue
		}
		c := edgeCities[(u+idx/3)%int64(len(edgeCities))]
		out = append(out, tweet.Tweet{
			ID: idx*16 + u, UserID: 100 + u, TS: idx*hourMs + (u+1)*60_000,
			Lat: c[0], Lon: c[1],
		})
	}
	return out
}

// edgePanel is the benchmark's four panel shapes ending at bucket edge.
func edgePanel(edge int64) []core.Request {
	at := func(idx int64) time.Time { return time.UnixMilli(idx * hourMs).UTC() }
	return []core.Request{
		{Analyses: []core.Analysis{core.AnalysisStats}, From: at(edge - 7*24), To: at(edge)},
		{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleState}, From: at(edge - 24), To: at(edge)},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleMetropolitan}, From: at(edge - 7*24), To: at(edge)},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleNational}},
	}
}

// edgeRing loads hours [from, to) one append per hour and warms the
// panel at the edge. It returns the ring and the records loaded.
func edgeRing(t *testing.T, from, to int64) (*Aggregator, []tweet.Tweet) {
	t.Helper()
	agg, err := NewAggregator(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var all []tweet.Tweet
	for idx := from; idx < to; idx++ {
		batch := edgeHour(idx)
		all = append(all, batch...)
		if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
	}
	askPanel(t, agg, to)
	return agg, all
}

func askPanel(t *testing.T, agg *Aggregator, edge int64) []*core.Result {
	t.Helper()
	var out []*core.Result
	for i, req := range edgePanel(edge) {
		res, err := agg.Query(req)
		if err != nil {
			t.Fatalf("edge %d panel query %d: %v", edge, i, err)
		}
		out = append(out, res)
	}
	return out
}

type buildCounts struct{ buckets, day, month int64 }

func counts(agg *Aggregator) buildCounts {
	st := agg.RollupStats()
	return buildCounts{buckets: agg.Builds(), day: st[0].Builds, month: st[1].Builds}
}

func (c buildCounts) since(o buildCounts) buildCounts {
	return buildCounts{c.buckets - o.buckets, c.day - o.day, c.month - o.month}
}

func TestEdgeAppendRebuildsNoClosedGroup(t *testing.T) {
	// 30-day months are buckets [720m, 720(m+1)). The history ends 30
	// hours short of a month boundary, so the 48 appends close one day
	// at step 6 and a day and a month at step 30.
	const boundary = 720 * 600
	first := int64(boundary - 30)
	agg, all := edgeRing(t, boundary-720-10*24, first)
	for step := int64(0); step < 48; step++ {
		before := counts(agg)
		idx := first + step
		batch := edgeHour(idx)
		all = append(all, batch...)
		if err := agg.IngestBatch(tweet.BatchOf(batch)); err != nil {
			t.Fatal(err)
		}
		askPanel(t, agg, idx+1)
		want := buildCounts{buckets: 1}
		if idx%24 == 0 {
			want.day = 1
		}
		if idx%720 == 0 {
			want.month = 1
		}
		if got := counts(agg).since(before); got != want {
			t.Fatalf("step %d (bucket %d): builds %+v, want %+v", step, idx, got, want)
		}
	}
	// Served from closed groups plus edge buckets, the panel is still the
	// cold rescan's answer bit for bit.
	sort.Sort(tweet.ByUserTime(all))
	study := core.NewStudyWithOptions(core.SliceSource(all), core.StudyOptions{Workers: 1})
	got := askPanel(t, agg, first+48)
	for i, req := range edgePanel(first + 48) {
		ref, err := study.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(got[i], ref) {
			t.Fatalf("panel query %d diverges from a cold rescan", i)
		}
	}
}

func TestLateAppendRemergesOnlyItsGroups(t *testing.T) {
	const boundary = 720 * 600
	edge := int64(boundary + 30)
	agg, _ := edgeRing(t, boundary-720-10*24, edge)
	// The late day lies in the closed month below the boundary, outside
	// the panel's 7-day windows; a 3-day window reaches its day group.
	late := int64(boundary - 15*24 + 5)
	day := core.Request{
		Analyses: []core.Analysis{core.AnalysisStats},
		From:     time.UnixMilli((late - 5 - 24) * hourMs).UTC(),
		To:       time.UnixMilli((late - 5 + 48) * hourMs).UTC(),
	}
	ask := func() {
		t.Helper()
		askPanel(t, agg, edge)
		if _, err := agg.Query(day); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	before := counts(agg)
	tw := edgeHour(late)[0]
	tw.ID, tw.TS = 1<<40, tw.TS+1
	if err := agg.IngestBatch(tweet.BatchOf([]tweet.Tweet{tw})); err != nil {
		t.Fatal(err)
	}
	ask()
	if got, want := counts(agg).since(before), (buildCounts{1, 1, 1}); got != want {
		t.Fatalf("late append rebuilt %+v, want exactly its bucket, day and month %+v", got, want)
	}
	ask()
	if got, want := counts(agg).since(before), (buildCounts{1, 1, 1}); got != want {
		t.Fatalf("repeat after late append rebuilt again: %+v", got)
	}
}

// naiveUsers is the linear double scan the cursor replaced: per user,
// find the smallest unread id over all parts, then collect its rows.
func naiveUsers(parts []*partial) (ids []int64, rows [][]userRec) {
	heads := make([]int, len(parts))
	for {
		u, found := int64(0), false
		for pi, p := range parts {
			if heads[pi] < len(p.users) && (!found || p.users[heads[pi]].id < u) {
				u, found = p.users[heads[pi]].id, true
			}
		}
		if !found {
			return ids, rows
		}
		var recs []userRec
		for pi, p := range parts {
			if heads[pi] < len(p.users) && p.users[heads[pi]].id == u {
				recs = append(recs, userRec{p: p, row: heads[pi]})
				heads[pi]++
			}
		}
		ids, rows = append(ids, u), append(rows, recs)
	}
}

func TestUserCursorMatchesNaiveScan(t *testing.T) {
	part := func(ids ...int64) *partial {
		p := &partial{}
		for _, id := range ids {
			p.users = append(p.users, userPart{id: id})
		}
		return p
	}
	cases := map[string][]*partial{
		"no parts":      nil,
		"empty parts":   {part(), part()},
		"one part":      {part(-3, 0, 7, 9)},
		"every part":    {part(1, 2, 3), part(1, 2, 3), part(1, 2, 3)},
		"one part each": {part(5), part(), part(1), part(3)},
		"mixed":         {part(1, 4), part(), part(2, 4, 9), part(4), part(-1, 9)},
	}
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 3, 50, 333, 800} {
		parts := make([]*partial, k)
		for i := range parts {
			var ids []int64
			for id := int64(0); id < 40; id++ {
				if rng.Intn(4) == 0 {
					ids = append(ids, id*id-300)
				}
			}
			parts[i] = part(ids...)
		}
		cases[fmt.Sprintf("random k=%d", k)] = parts
	}
	// Cases across chunk cuts (cursorChunk rows).
	span := func(lo, hi, step int64) []int64 {
		var ids []int64
		for id := lo; id < hi; id += step {
			ids = append(ids, id)
		}
		return ids
	}
	big := span(0, 3*cursorChunk, 1)
	cases["part of several chunks"] = []*partial{part(big...)}
	// The cut falls inside the small parts' rows, whose ids interleave
	// with the big part's.
	cases["unequal sizes"] = []*partial{part(span(1, 6*cursorChunk, 2)...), part(span(0, 900, 3)...), part(span(5000, 9000, 7)...)}
	cases["empty parts between full ones"] = []*partial{part(big...), part(), part(), part(span(2, 2*cursorChunk, 2)...), part()}
	cases["ids 0 and MaxInt64"] = []*partial{
		part(append(span(0, 2*cursorChunk, 1), math.MaxInt64)...), part(0, math.MaxInt64), part(math.MaxInt64),
	}
	// One user in every part at each id around the first cut, so that for
	// one of them the cut falls exactly on it (checked below).
	atCut := map[string]int64{}
	for id := int64(cursorChunk - 8); id < cursorChunk+8; id++ {
		name := fmt.Sprintf("user %d in every part", id)
		cases[name] = []*partial{part(big...), part(id), part(1, id, 9000), part(id)}
		atCut[name] = id
	}
	cutHit := false
	for name, parts := range cases {
		wantIDs, wantRows := naiveUsers(parts)
		cur := newUserCursor(parts)
		for i := 0; ; i++ {
			id, recs, ok := cur.next()
			if !ok {
				if i != len(wantIDs) {
					t.Fatalf("%s: cursor yielded %d users, want %d", name, i, len(wantIDs))
				}
				break
			}
			if i >= len(wantIDs) || id != wantIDs[i] || !reflect.DeepEqual(recs, wantRows[i]) {
				t.Fatalf("%s: user %d = (%d, %d rows), diverges from the naive scan", name, i, id, len(recs))
			}
			if u, ok := atCut[name]; ok && id == u && cur.at == len(cur.keys) && i+1 < len(wantIDs) {
				cutHit = true // u is the last user of a chunk that is not the last
			}
		}
	}
	if !cutHit {
		t.Fatal("no case put a user present in every part at a chunk cut")
	}
}
