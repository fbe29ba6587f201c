package live

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/ring"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// What a published partial costs (DESIGN.md §7, §11): interior
// transitions as a sorted cell list, 64-byte user rows with derived
// column ranges, the bucket's own unit-vector column shared rather than
// copied — and the ResidentBytes counters that account for all of it.

// denseInterior accumulates, straight from the records, the interior
// transition counts of every aligned group of `factor` hourly buckets:
// one dense areas×areas matrix per placement slot of the user and scale
// slot (stays on the diagonal), laid out like a build's accumulator. A transition is interior to a
// group when both of a user's consecutive records fall inside it.
func denseInterior(a *Aggregator, sorted []tweet.Tweet, factor int64) map[int64][]float64 {
	b := tweet.BatchOf(sorted)
	assign := make([]int16, len(sorted)*a.slots)
	a.msm.MapAllBatch(b.Lat, b.Lon, assign, a.slots)
	out := map[int64][]float64{}
	for i := 1; i < len(sorted); i++ {
		prev, cur := &sorted[i-1], &sorted[i]
		g := floorDiv(a.bucketIdx(cur.TS), factor)
		if prev.UserID != cur.UserID || floorDiv(a.bucketIdx(prev.TS), factor) != g {
			continue
		}
		for s := range a.scales {
			from, to := assign[(i-1)*a.slots+s], assign[i*a.slots+s]
			if from < 0 || to < 0 {
				continue
			}
			if out[g] == nil {
				out[g] = make([]float64, ring.Slots*a.accLen)
			}
			out[g][ring.SlotOf(cur.UserID)*a.accLen+a.accOff[s]+int(from)*len(a.regions[s].Areas)+int(to)]++
		}
	}
	return out
}

// checkCells requires p's cell list to be sorted, free of zeros and
// equal, cell for cell, to the dense reference (nil = all zeros).
func checkCells(t *testing.T, a *Aggregator, p *partial, want []float64, label string) {
	t.Helper()
	if want == nil && p.flows != nil {
		t.Fatalf("%s: %d cells where the records hold no interior transition", label, len(p.flows))
	}
	got := make([]float64, ring.Slots*a.accLen)
	for k, c := range p.flows {
		if c.n <= 0 || c.n != math.Trunc(c.n) {
			t.Fatalf("%s: cell %+v is not a positive count", label, c)
		}
		at := int(c.pslot)*a.accLen + a.accOff[c.slot] + int(c.from)*len(a.regions[c.slot].Areas) + int(c.to)
		if k > 0 {
			q := p.flows[k-1]
			if int(q.pslot)*a.accLen+a.accOff[q.slot]+int(q.from)*len(a.regions[q.slot].Areas)+int(q.to) >= at {
				t.Fatalf("%s: cells %+v, %+v out of (pslot, slot, from, to) order", label, q, c)
			}
		}
		got[at] = c.n
	}
	if want != nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cell list differs from the dense matrix accumulated from the records", label)
	}
}

func TestFlowCellsMatchDenseReference(t *testing.T) {
	all, sorted := snapCorpus(t, 400, 23)
	agg := hourlyAgg(t, Options{})
	if err := agg.IngestBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Query(core.Request{}); err != nil { // materialises every bucket and closed group
		t.Fatal(err)
	}
	hours, withCells := denseInterior(agg, sorted, 1), 0
	for idx, b := range agg.buckets {
		p := b.part
		if p == nil {
			t.Fatalf("bucket %d not materialised by the full-range query", idx)
		}
		checkCells(t, agg, p, hours[idx], "hour partial")
		if int(p.tweets) == len(p.users) && p.flows != nil {
			t.Fatalf("bucket %d: one tweet per user, yet flows = %v", idx, p.flows)
		}
		if p.flows != nil {
			withCells++
		}
	}
	if withCells == 0 || withCells == len(agg.buckets) {
		t.Fatalf("corpus exercises one case only: %d of %d hour partials hold cells", withCells, len(agg.buckets))
	}
	for _, tier := range agg.tiers {
		if len(tier.groups) == 0 {
			t.Fatalf("no closed group at factor %d", tier.factor)
		}
		ref := denseInterior(agg, sorted, tier.factor)
		for g, grp := range tier.groups {
			checkCells(t, agg, grp.part, ref[g], "rollup merge")
		}
	}
	// The moving-edge feed has one tweet per user and hour: every
	// transition is a boundary, and no hour partial holds a cell.
	edge, _ := edgeRing(t, 1000, 1060)
	for idx, b := range edge.buckets {
		if b.part != nil && b.part.flows != nil {
			t.Fatalf("edge bucket %d: flows = %v, want nil", idx, b.part.flows)
		}
	}
}

// recount walks the ring for what ResidentBytes maintains incrementally.
func recount(a *Aggregator) ResidentBytes {
	a.mu.Lock()
	defer a.mu.Unlock()
	var rb ResidentBytes
	for _, b := range a.buckets {
		rb.Records += a.recordBytes(len(b.tweets))
		rb.Partials += b.part.bytes()
		if s := b.stored; s != nil {
			// A store-only bucket keeps its restored partial for counting
			// after an append invalidated it, and the interior times.
			rb.Partials += 8 * int64(len(s.mids))
			if s.part != b.part {
				rb.Partials += s.part.bytes()
			}
		}
	}
	for _, t := range a.tiers {
		for _, grp := range t.groups {
			rb.Rollups += grp.part.bytes()
		}
	}
	return rb
}

func TestResidentBytesMatchRecount(t *testing.T) {
	all, _ := snapCorpus(t, 1500, 5)
	sort.Sort(tweet.ByTime(all))
	agg := hourlyAgg(t, Options{})
	rng := rand.New(rand.NewSource(17))
	check := func(step string) {
		t.Helper()
		if got, want := agg.ResidentBytes(), recount(agg); got != want {
			t.Fatalf("after %s: ResidentBytes %+v, recount %+v", step, got, want)
		}
	}
	for next := 0; next < len(all); {
		switch rng.Intn(4) {
		case 0, 1: // the feed moves on
			n := min(1+rng.Intn(400), len(all)-next)
			if err := agg.IngestBatch(tweet.BatchOf(all[next : next+n])); err != nil {
				t.Fatal(err)
			}
			next += n
			check("append")
		case 2: // a late batch lands in already materialised buckets
			if next == 0 {
				continue
			}
			late := slices.Clone(all[rng.Intn(next):next])
			late = late[:min(len(late), 1+rng.Intn(20))]
			for i := range late {
				late[i].ID += 1 << 40
			}
			if err := agg.IngestBatch(tweet.BatchOf(late)); err != nil {
				t.Fatal(err)
			}
			check("late append")
		default:
			edge := agg.bucketIdx(all[max(next-1, 0)].TS)
			req := core.Request{To: time.UnixMilli((edge + 1) * hourMs).UTC()}
			if rng.Intn(2) == 0 {
				req.From = time.UnixMilli((edge - int64(rng.Intn(24*40))) * hourMs).UTC()
			}
			// FoldPartial materialises what Query would and stops before
			// the model fits, which thin windows cannot support.
			if _, err := agg.FoldPartial(req); err != nil {
				t.Fatal(err)
			}
			check("query")
		}
	}
	if rb := agg.ResidentBytes(); rb.Records == 0 || rb.Partials == 0 || rb.Rollups == 0 {
		t.Fatalf("schedule left a kind empty: %+v", rb)
	}

	// Restored, the ring holds partials and merges and no records; reads
	// that need records bring them back, and appends land beside them.
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(mustWindow(t, agg, math.MinInt64, math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	snaps, err := OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := agg.Capture()
	if err != nil {
		t.Fatal(err)
	}
	var covered []string
	for _, m := range store.Segments() {
		covered = append(covered, m.File)
	}
	if _, err := snaps.Commit(c, covered); err != nil {
		t.Fatal(err)
	}
	agg = hourlyAgg(t, Options{})
	if _, err := Recover(agg, store, snaps, RecoverOpts{}); err != nil {
		t.Fatal(err)
	}
	check("restore")
	if rb := agg.ResidentBytes(); rb.Records != 0 || agg.StoreOnlyBuckets() == 0 {
		t.Fatalf("restored ring holds %+v with %d store-only buckets, want no records", rb, agg.StoreOnlyBuckets())
	}
	first, last := all[0].TS, all[len(all)-1].TS
	at := func() int64 { return first + rng.Int63n(last-first) }
	for step := 0; step < 60; step++ {
		switch rng.Intn(3) {
		case 0: // an unaligned window reads its edge buckets back
			lo := at()
			if _, err := agg.FoldPartial(core.Request{From: time.UnixMilli(lo).UTC(), To: time.UnixMilli(lo + rng.Int63n(48*hourMs)).UTC()}); err != nil {
				t.Fatal(err)
			}
			check("unaligned query")
		case 1: // a late record lands in a restored bucket
			late := all[rng.Intn(len(all))]
			late.ID += 2 << 40
			if err := agg.IngestBatch(tweet.BatchOf([]tweet.Tweet{late})); err != nil {
				t.Fatal(err)
			}
			if err := store.Append([]tweet.Tweet{late}); err != nil {
				t.Fatal(err)
			}
			check("late append")
		default: // a custom radius streams a window's records
			lo := at()
			mustWindow(t, agg, lo, lo+rng.Int63n(24*hourMs))
			check("window")
		}
	}
	if rb := agg.ResidentBytes(); rb.Records == 0 {
		t.Fatalf("no bucket was read back: %+v", rb)
	}
}

// TestPartialFootprint pins the two numbers the layout was designed to:
// a user row is one cache line, and very sparse hour partials — 16 rings
// over one shape, each holding one placement slot's users, hourly
// buckets, a couple of user rows each — hold a bounded number of bytes
// per record.
func TestPartialFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(userPart{}); sz > 64 {
		t.Fatalf("userPart is %d bytes, want <= 64", sz)
	}
	all, _ := snapCorpus(t, 19000, 42)
	sort.Sort(tweet.ByTime(all))
	sh, err := NewShape(Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	horizon := all[0].TS + 120*24*hourMs
	var slotFeed [ring.Slots][]tweet.Tweet
	records := 0
	for _, tw := range all {
		if tw.TS < horizon {
			slotFeed[ring.SlotOf(tw.UserID)] = append(slotFeed[ring.SlotOf(tw.UserID)], tw)
			records++
		}
	}
	var total ResidentBytes
	partials, rows := 0, 0
	for _, feed := range slotFeed {
		agg := sh.NewAggregator()
		if err := agg.IngestBatch(tweet.BatchOf(feed)); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Query(core.Request{}); err != nil {
			t.Fatal(err)
		}
		rb := agg.ResidentBytes()
		if rb != recount(agg) {
			t.Fatalf("ResidentBytes %+v, recount %+v", rb, recount(agg))
		}
		total.Add(rb)
		for _, b := range agg.buckets {
			partials++
			rows += len(b.part.users)
		}
	}
	perRecord := float64(total.Total()) / float64(records)
	t.Logf("%d records in %d hour partials (%.1f user rows each): %+v = %.0f B/record",
		records, partials, float64(rows)/float64(partials), total, perRecord)
	if perRecord > 450 {
		t.Fatalf("sparse rings hold %.0f B per record, want <= 450", perRecord)
	}
}

// TestSharedVecsSurviveIngest: folds run outside the ring lock on the
// partials they collected under it, while appends keep landing in — and
// re-sorting — the same bucket. Every fold must still be bit-equal to a
// cold pass over exactly the records its coverage key names. A published
// partial owns all its columns (the build reads the bucket's unit-vector
// column and keeps only the sums), so run under -race this is the proof
// that no writer reaches anything a fold reads.
func TestSharedVecsSurviveIngest(t *testing.T) {
	agg := hourlyAgg(t, Options{})
	const h0 = int64(500_000)
	lo, hi := h0*hourMs, (h0+3)*hourMs
	req := core.Request{
		Analyses: []core.Analysis{core.AnalysisStats, core.AnalysisFlows},
		Scales:   []census.Scale{census.ScaleState},
		From:     time.UnixMilli(lo).UTC(), To: time.UnixMilli(hi).UTC(),
	}
	// Rounds of records for the middle bucket; user ids descend across
	// rounds so every append reorders the sorted columns.
	const rounds, perRound = 12, 40
	var feed []tweet.Tweet
	for r := 0; r < rounds; r++ {
		for k := 0; k < perRound; k++ {
			c := edgeCities[(r+k)%len(edgeCities)]
			feed = append(feed, tweet.Tweet{
				ID: int64(r*perRound + k), UserID: int64(1000 - 7*r + k%5),
				TS:  (h0+1)*hourMs + int64(k)*60_000 + int64(r),
				Lat: c[0], Lon: c[1],
			})
		}
	}
	seed := append(edgeHour(h0), edgeHour(h0+2)...)
	if err := agg.IngestBatch(tweet.BatchOf(seed)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var folds atomic.Int64
	prefixOf := map[string]int{agg.coverageKey(lo, hi): 0} // coverage key → rounds ingested
	done := make(chan struct{})
	var wg sync.WaitGroup
	type sample struct {
		rounds int
		res    *core.Result
	}
	samples := make([][]sample, 3)
	for r := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last fold over the final state
				default:
				}
				key := agg.coverageKey(lo, hi)
				res, err := agg.Query(req)
				if err != nil {
					t.Error(err)
					return
				}
				folds.Add(1)
				if agg.coverageKey(lo, hi) != key {
					continue // an append landed between the probes; the fold may be of either state
				}
				mu.Lock()
				n, ok := prefixOf[key]
				mu.Unlock()
				if !ok {
					t.Errorf("fold under coverage key %s the writer never published", key)
					return
				}
				samples[r] = append(samples[r], sample{n, res})
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		mu.Lock()
		if err := agg.IngestBatch(tweet.BatchOf(feed[r*perRound : (r+1)*perRound])); err != nil {
			t.Fatal(err)
		}
		prefixOf[agg.coverageKey(lo, hi)] = r + 1
		mu.Unlock()
		// Let the readers fold this state before the next append.
		for seen := folds.Load(); folds.Load() < seen+int64(len(samples)) && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()

	refs := map[int]*core.Result{}
	checked := 0
	for _, ss := range samples {
		for _, s := range ss {
			if refs[s.rounds] == nil {
				recs := append(slices.Clone(seed), feed[:s.rounds*perRound]...)
				sort.Sort(tweet.ByUserTime(recs))
				ref, err := core.NewStudyWithOptions(core.SliceSource(recs), core.StudyOptions{Workers: 1}).Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				refs[s.rounds] = ref
			}
			if !resultsBitEqual(s.res, refs[s.rounds]) {
				t.Fatalf("fold concurrent with appends diverges from Execute over its %d rounds", s.rounds)
			}
			checked++
		}
	}
	if checked == 0 || refs[rounds] == nil {
		t.Fatalf("%d folds checked, final state seen: %v", checked, refs[rounds] != nil)
	}
}
