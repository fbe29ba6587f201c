package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
)

// codecAggregator builds a ring loaded with a small corpus, returning
// the ring and the corpus's timestamp span.
func codecAggregator(t testing.TB) (*live.Aggregator, int64, int64) {
	return codecAggregatorUsers(t, 300)
}

func codecAggregatorUsers(t testing.TB, users int) (*live.Aggregator, int64, int64) {
	t.Helper()
	gen, err := synth.NewGenerator(synth.DefaultConfig(users, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := live.NewAggregator(live.Options{BucketWidth: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.IngestBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	minTS, maxTS := all[0].TS, all[0].TS
	for _, tw := range all {
		minTS = min(minTS, tw.TS)
		maxTS = max(maxTS, tw.TS)
	}
	return agg, minTS, maxTS
}

// TestPartialCodecRoundTrip: encode→decode is the identity, bit for bit,
// across request shapes exercising every section of the format (full
// study, stats-only, flows-only, windowed subsets, empty windows).
func TestPartialCodecRoundTrip(t *testing.T) {
	agg, minTS, maxTS := codecAggregator(t)
	mid := minTS + (maxTS-minTS)/2
	reqs := []core.Request{
		{},
		{Analyses: []core.Analysis{core.AnalysisStats}},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleState}},
		{Analyses: []core.Analysis{core.AnalysisPopulation}},
		{From: time.UnixMilli(minTS + 1).UTC(), To: time.UnixMilli(mid).UTC()},
		{From: time.UnixMilli(maxTS + 10).UTC(), To: time.UnixMilli(maxTS + 20).UTC()}, // matches nothing
	}
	for ri, req := range reqs {
		p, err := agg.FoldPartial(req)
		if err != nil {
			t.Fatalf("req %d (%s): fold partial: %v", ri, req.Key(), err)
		}
		data := encodePartial(p)
		q, err := decodePartial(data)
		if err != nil {
			t.Fatalf("req %d (%s): decode: %v", ri, req.Key(), err)
		}
		if !testx.ValuesBitEqual(p, q) {
			t.Fatalf("req %d (%s): decoded partial is not bit-identical (%d wire bytes)", ri, req.Key(), len(data))
		}
	}
}

// TestPartialCodecRejectsCorruption: truncations, trailing garbage, a
// bad magic, any version but the current one, counts claiming more than
// the bytes that follow, and user rows out of order or holding values no
// fold can produce must error, never yield a partial.
func TestPartialCodecRejectsCorruption(t *testing.T) {
	agg, _, _ := codecAggregator(t)
	p, err := agg.FoldPartial(core.Request{})
	if err != nil {
		t.Fatal(err)
	}
	data := encodePartial(p)

	if _, err := decodePartial(data[:0]); err == nil {
		t.Fatal("empty buffer decoded")
	}
	for _, cut := range []int{1, 7, len(data) / 2, len(data) - 1} {
		if _, err := decodePartial(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := decodePartial(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := decodePartial(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, ver := range []byte{1, 2, 9} {
		bad := append([]byte(nil), data...)
		bad[4], bad[5] = ver, 0
		if _, err := decodePartial(bad); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: %v, want unsupported version", ver, err)
		}
	}

	// A stats-only partial has no scales, so the user count sits right
	// behind the fixed prefix: claim one more user than the bytes behind
	// it could hold.
	if p, err = agg.FoldPartial(core.Request{Analyses: []core.Analysis{core.AnalysisStats}}); err != nil {
		t.Fatal(err)
	}
	data = encodePartial(p)
	const userCountAt = 4 + 2 + 1 + 8 + 4*8 + 2*8 + 2
	if got := binary.LittleEndian.Uint32(data[userCountAt:]); int(got) != len(p.Users) {
		t.Fatalf("user count at byte %d reads %d, fold has %d users", userCountAt, got, len(p.Users))
	}
	claim := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(claim[userCountAt:], uint32((len(data)-userCountAt-4)/userWireBytes+1))
	if _, err := decodePartial(claim); err == nil || !strings.Contains(err.Error(), "user count") {
		t.Fatalf("over-claimed user count: %v", err)
	}
	list := EncodePartials([]*live.ShardPartial{p})
	binary.LittleEndian.PutUint32(list, uint32((len(list)-4)/lenPrefixBytes+1))
	if _, err := DecodePartials(list); err == nil || !strings.Contains(err.Error(), "partial count") {
		t.Fatalf("over-claimed partial count: %v", err)
	}

	// MergePartials interleaves shards by ascending id and tells a user on
	// two shards by equal heads, so a row out of order — or a value no fold
	// emits — must stop at the decoder, named by row.
	if len(p.Users) < 3 {
		t.Fatalf("fold has %d users, want at least 3", len(p.Users))
	}
	for _, tc := range []struct {
		name, want string
		damage     func(us []live.UserTrajectory)
	}{
		{"rows swapped", "user row 2: id", func(us []live.UserTrajectory) { us[1], us[2] = us[2], us[1] }},
		{"row duplicated", "user row 1: id", func(us []live.UserTrajectory) { us[1] = us[0] }},
		{"no tweets", "user row 1", func(us []live.UserTrajectory) { us[1].Tweets = 0 }},
		{"no cell", "user row 0", func(us []live.UserTrajectory) { us[0].DistinctCells = 0 }},
		{"more cells than tweets", "user row 2", func(us []live.UserTrajectory) { us[2].DistinctCells = us[2].Tweets + 1 }},
		{"negative wait", "user row 1", func(us []live.UserTrajectory) { us[1].WaitMs = -1 }},
		{"NaN radius", "user row 0", func(us []live.UserTrajectory) { us[0].GyrationKM = math.NaN() }},
		{"negative radius", "user row 2", func(us []live.UserTrajectory) { us[2].GyrationKM = -0.5 }},
		{"radius above the Earth's", "user row 1", func(us []live.UserTrajectory) { us[1].GyrationKM = 6372 }},
	} {
		q := *p
		q.Users = append([]live.UserTrajectory(nil), p.Users...)
		tc.damage(q.Users)
		if _, err := decodePartial(encodePartial(&q)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodePartials fuzzes the decoder a coordinator runs on every shard
// reply. Seeded with real shard replies — one partial per node — and the
// damage the test above applies, it must never panic, never allocate
// more than the payload's own size justifies (a prefix may claim four
// billion users), and whatever it accepts must re-encode to the very
// bytes it was decoded from.
func FuzzDecodePartials(f *testing.F) {
	// Three users over a tenth of the corpus span, one reply per section
	// of the format, keep each seed at a few kilobytes (most of it one
	// 20×20 flow matrix). The engine minimises every input that finds
	// coverage and would spend a short run doing only that: run with
	// -fuzzminimizetime 100x, as CI does.
	gen, err := synth.NewGenerator(synth.DefaultConfig(3, 5, 9))
	if err != nil {
		f.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		f.Fatal(err)
	}
	shard, err := NewLocalShard(nil, live.Options{BucketWidth: 24 * time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	deliverAll(f, shard, all)
	minTS, maxTS := all[0].TS, all[0].TS
	for _, tw := range all {
		minTS, maxTS = min(minTS, tw.TS), max(maxTS, tw.TS)
	}
	from, to := time.UnixMilli(minTS).UTC(), time.UnixMilli(minTS+(maxTS-minTS)/10).UTC()
	var replies [][]byte
	var stats *live.ShardPartial
	for _, req := range []core.Request{
		{Analyses: []core.Analysis{core.AnalysisStats}, From: from, To: to},
		{Analyses: []core.Analysis{core.AnalysisFlows}, Scales: []census.Scale{census.ScaleState}, From: from, To: to},
		{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleMetropolitan}, From: from, To: to},
	} {
		ps, err := shard.Partials(context.Background(), req, allSlots[:])
		if err != nil || len(ps) != 1 {
			f.Fatalf("shard reply: %d partials, err %v; want one", len(ps), err)
		}
		if stats == nil {
			stats = ps[0]
		}
		reply := EncodePartials(ps)
		if again, err := DecodePartials(reply); err != nil || !bytes.Equal(EncodePartials(again), reply) {
			f.Fatalf("seed does not round-trip to its own bytes: %v", err)
		}
		replies = append(replies, reply)
		f.Add(reply)
	}
	// The stats reply has no scales, so its user rows start at a fixed
	// offset behind the list count and the partial's length prefix.
	pristine := replies[0]
	const row0 = 4 + 4 + 4 + 2 + 1 + 8 + 4*8 + 2*8 + 2 + 4
	if got := int64(binary.LittleEndian.Uint64(pristine[row0:])); got != stats.Users[0].ID {
		f.Fatalf("byte %d reads %d, want the first user's id %d", row0, got, stats.Users[0].ID)
	}
	for _, at := range []int{0, 4, 8, 12, 14, 15, 71, len(pristine) / 2, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[at] ^= 0xA5
		f.Add(flipped)
	}
	f.Add(pristine[:len(pristine)/2])
	f.Add(append(append([]byte(nil), pristine...), 0))
	claim := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint32(claim, math.MaxUint32)
	f.Add(claim)
	f.Add([]byte{})
	// One flip in every field of the first user row (id, tweets, cells,
	// wait, the radius's exponent byte), and the previous wire version.
	for _, at := range []int{row0, row0 + 8, row0 + 16, row0 + 31, row0 + 39} {
		flipped := append([]byte(nil), pristine...)
		flipped[at] ^= 0xA5
		f.Add(flipped)
	}
	v2 := append([]byte(nil), pristine...)
	binary.LittleEndian.PutUint16(v2[12:], 2)
	f.Add(v2)
	// Bytes the decoder used to accept that do not re-encode to
	// themselves: an unknown flag bit, a bool byte of 2 — the flows
	// reply's hasFlows, behind its one scale id and its hasCounts — and a
	// metro flag over no values, which no fold writes.
	unknownFlag := append([]byte(nil), pristine...)
	unknownFlag[14] |= 0x80
	const hasFlows = row0 - 2 // the user count's offset in the stats reply, less hasCounts and hasFlows
	if replies[1][hasFlows-1] != 0 || replies[1][hasFlows] != 1 {
		f.Fatalf("bytes %d and %d of the flows reply read %d and %d, want its hasCounts 0 and hasFlows 1", hasFlows-1, hasFlows, replies[1][hasFlows-1], replies[1][hasFlows])
	}
	boolTwo := append([]byte(nil), replies[1]...)
	boolTwo[hasFlows] = 2
	emptyMetro := EncodePartials([]*live.ShardPartial{{FoldedPass: core.FoldedPass{Metro500: []float64{}}}})
	for _, probe := range [][]byte{unknownFlag, boolTwo, emptyMetro} {
		if _, err := DecodePartials(probe); err == nil {
			f.Fatal("a reply no encoder writes was accepted")
		}
		f.Add(probe)
	}

	// ReadMemStats, not runtime/metrics: it flushes the per-P allocation
	// counts, so nothing allocated before the call is charged to it.
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocated()
		got, err := DecodePartials(data)
		// A decoded user row is the 40 bytes it is on the wire and every
		// float costs its own 8; the slack covers the gazetteer lookups,
		// the error message and the test runtime.
		if n, limit := allocated()-before, uint64(4*len(data)+1<<16); n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := EncodePartials(got); !bytes.Equal(again, data) {
			t.Fatalf("%d accepted bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}

// TestMergeRejectsDuplicateUsers: the same user appearing on two shards
// violates the partitioning contract and must be an error, not a silent
// double count.
func TestMergeRejectsDuplicateUsers(t *testing.T) {
	agg, _, _ := codecAggregator(t)
	req := core.Request{Analyses: []core.Analysis{core.AnalysisStats}}
	p1, err := agg.FoldPartial(req)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := agg.FoldPartial(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartials(req, []*live.ShardPartial{p1, p2}); err == nil {
		t.Fatal("duplicate users across shards merged without error")
	}
}
