package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/ring"
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/wal"
)

// TestHTTPClusterMatchesExecute drives the full wire path — coordinator →
// HTTPShard → Node → LocalShard and back through the binary partial codec
// — and checks the answer is still bit-identical to a single-node pass.
func TestHTTPClusterMatchesExecute(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(400, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}

	var shards []Shard
	for i := 0; i < 2; i++ {
		local, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewNode(local, NodeOptions{}))
		t.Cleanup(srv.Close)
		shards = append(shards, NewHTTPShard(srv.URL, srv.Client()))
	}
	coord, err := NewCoordinator(shards, CoordinatorOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}

	sorted := append([]tweet.Tweet(nil), all...)
	sort.Sort(tweet.ByUserTime(sorted))
	study := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})

	req := core.Request{}
	serving := map[int]bool{}
	for k := 0; k < ring.Slots; k++ {
		serving[coord.ring.Replicas(k)[0]] = true
	}
	res, cached, err := coord.Query(req)
	if err != nil || cached {
		t.Fatalf("http cluster query: cached=%v err=%v", cached, err)
	}
	// The coordinator refuses a reply that is not exactly one partial, so
	// one fetch per serving node is one partial per node.
	if got := coord.PartialFetches(); got != int64(len(serving)) {
		t.Fatalf("http cluster query: %d shard fetches, want one per serving node (%d)", got, len(serving))
	}
	ref, err := study.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(res, ref) {
		t.Fatal("http scatter-gather diverges from single-node execute")
	}

	// Warm repeat across the wire: served from the coordinator cache.
	res2, cached, err := coord.Query(req)
	if err != nil || !cached || !testx.ValuesBitEqual(res2, ref) {
		t.Fatalf("warm http repeat: cached=%v err=%v", cached, err)
	}

	// A custom radius folds on the shards like any shape: the partials
	// that cross the wire carry its counts and flows, and no record.
	custom := core.Request{Analyses: []core.Analysis{core.AnalysisPopulation, core.AnalysisFlows}, Radius: 30_000}
	res, _, err = coord.Query(custom)
	if err != nil {
		t.Fatalf("custom radius over http: %v", err)
	}
	ref, err = study.Execute(context.Background(), custom)
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(res, ref) {
		t.Fatal("custom-radius http scatter-gather diverges from single-node execute")
	}

	// Shard health flows back through the coordinator.
	for _, st := range coord.Health() {
		if !st.OK || st.Degraded {
			t.Fatalf("shard %d unhealthy: %+v", st.Index, st)
		}
		if st.Health.Ingested == 0 {
			t.Fatalf("shard %d reports zero ingested records", st.Index)
		}
	}
}

// TestShardRejectsBadSlotSets: a slot set must be non-empty, in range and
// strictly ascending — a repeated slot would fold its ring twice and
// double every count — in process and over HTTP (400); a valid set folds
// into exactly one partial.
func TestShardRejectsBadSlotSets(t *testing.T) {
	gen, err := synth.NewGenerator(synth.DefaultConfig(200, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	all, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	deliverAll(t, local, all)
	srv := httptest.NewServer(NewNode(local, NodeOptions{}))
	t.Cleanup(srv.Close)
	req := core.Request{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleNational}}
	ctx := context.Background()

	for _, slots := range [][]int{nil, {}, {3, 3}, {5, 2}, {-1}, {ring.Slots}, {0, ring.Slots}} {
		if ps, err := local.Partials(ctx, req, slots); err == nil {
			t.Errorf("Partials(%v) = %d partials, want an error", slots, len(ps))
		}
		if key, err := local.Coverage(ctx, req, slots); err == nil {
			t.Errorf("Coverage(%v) = %q, want an error", slots, key)
		}
		for _, path := range []string{pathPartials, pathCoverage} {
			body, _ := json.Marshal(slotRequest{Request: req, Slots: slots})
			resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s slots %v: status %d, want 400", path, slots, resp.StatusCode)
			}
		}
	}

	ps, err := local.Partials(ctx, req, []int{3, 5, 11})
	if err != nil || len(ps) != 1 {
		t.Fatalf("valid slot set: %d partials, err %v; want exactly one", len(ps), err)
	}
	remote, err := NewHTTPShard(srv.URL, srv.Client()).Partials(ctx, req, []int{3, 5, 11})
	if err != nil || len(remote) != 1 || !testx.ValuesBitEqual(ps, remote) {
		t.Fatalf("valid slot set over HTTP: %d partials, err %v; want the same one partial", len(remote), err)
	}
}

// TestCoverageFingerprintCoversEveryMember: a new coverage key at any
// member index moves the coordinator's cache fingerprint, so no member
// may fall outside it.
func TestCoverageFingerprintCoversEveryMember(t *testing.T) {
	members := []int{0, 63, 64, 70, 1000}
	for _, nd := range members {
		var assign [ring.Slots]int
		for k := range assign {
			assign[k] = nd
		}
		if coverageFingerprint(1, assign, map[int]string{nd: "before"}) == coverageFingerprint(1, assign, map[int]string{nd: "after"}) {
			t.Errorf("member %d: new data leaves the fingerprint unchanged", nd)
		}
	}
	var assign [ring.Slots]int
	keys := map[int]string{}
	for i, nd := range members {
		keys[nd] = "before"
		for k := i; k < ring.Slots; k += len(members) {
			assign[k] = nd
		}
	}
	base := coverageFingerprint(1, assign, keys)
	for _, nd := range members {
		moved := maps.Clone(keys)
		moved[nd] = "after"
		if coverageFingerprint(1, assign, moved) == base {
			t.Errorf("member %d of %d: new data leaves the fingerprint unchanged", nd, len(members))
		}
	}
}

// TestCoordinatorRejectsTooManyMembers: a spooled frame names its
// replicas in a 64-bit mask, so a coordinator takes at most wal.MaxNodes
// members. At the bound the last member is still addressable: it owns
// slot 8 at R=1, and a WAL-backed ingest reaches it and answers exactly.
func TestCoordinatorRejectsTooManyMembers(t *testing.T) {
	shards := make([]Shard, wal.MaxNodes+1)
	for i := range shards {
		s, err := NewLocalShard(nil, live.Options{BucketWidth: 7 * 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	if _, err := NewCoordinator(shards, CoordinatorOptions{}); err == nil {
		t.Fatalf("coordinator over %d shards accepted", len(shards))
	}
	opts := fastRetry()
	opts.WALDir = t.TempDir()
	coord, err := NewCoordinator(shards[:wal.MaxNodes], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	last := wal.MaxNodes - 1
	if owned := coord.ring.SlotsFor(last); len(owned) == 0 {
		t.Fatalf("member %d owns no slot; the test needs it to", last)
	}
	all := failoverCorpus(t, 300, 11, 13)
	if err := coord.AddBatch(tweet.BatchOf(all)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := shards[last].Health()
	if err != nil || h.Ingested == 0 || coord.sp.PendingRowsNode(last) != 0 {
		t.Fatalf("member %d: ingested %d, pending %d, err %v", last, h.Ingested, coord.sp.PendingRowsNode(last), err)
	}
	req := core.Request{Analyses: []core.Analysis{core.AnalysisStats}}
	res, _, err := coord.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(res, singleNodeRef(t, all, req)) {
		t.Fatal("64-member answer diverges from single-node execute")
	}
}

// TestNodeIngestLimits: the shard's delivery endpoint applies a valid
// envelope, rejects a malformed envelope and a frame for a slot out of
// range with 400, and honours the body bound with 413.
func TestNodeIngestLimits(t *testing.T) {
	local, err := NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewNode(local, NodeOptions{MaxBodyBytes: 256}))
	t.Cleanup(srv.Close)
	frame := func(rows int) []byte {
		b := &tweet.Batch{}
		for i := 0; i < rows; i++ {
			b.Append(tweet.Tweet{ID: int64(i), UserID: 1, TS: 1, Lat: -33.8, Lon: 151.2})
		}
		f, err := tweet.AppendFrame(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range []struct {
		name string
		body []byte
		want int
	}{
		{"valid", appendDeliveries(nil, []Delivery{{Seq: 1, Slot: ring.SlotOf(1), Frame: frame(1)}}), 200},
		{"malformed envelope", []byte("truncated"), 400},
		{"slot out of range", appendDeliveries(nil, []Delivery{{Seq: 2, Slot: ring.Slots, Frame: frame(1)}}), 400},
		{"oversized body", appendDeliveries(nil, []Delivery{{Seq: 3, Slot: ring.SlotOf(1), Frame: frame(8)}}), 413},
	} {
		resp, err := srv.Client().Post(srv.URL+pathDeliverBatch+"?sender=s", "application/octet-stream", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	if got := local.Ingested(); got != 1 {
		t.Fatalf("shard ingested %d records, want the valid delivery's 1", got)
	}
}

// FuzzDecodeDeliveries fuzzes the envelope a shard node decodes off every
// deliver-batch request. Seeded with envelopes of 0, 1 and 16 real frames,
// a truncated header and a truncated frame, it must never panic, and
// whatever it accepts must re-encode to the same bytes.
func FuzzDecodeDeliveries(f *testing.F) {
	var ds []Delivery
	for k := 0; k < ring.Slots; k++ {
		b := &tweet.Batch{}
		for i := 0; i <= k%3; i++ {
			b.Append(tweet.Tweet{ID: int64(k*4 + i), UserID: int64(k), TS: 1378000000000 + int64(i), Lat: -33.87, Lon: 151.21})
		}
		frame, err := tweet.AppendFrame(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		ds = append(ds, Delivery{Seq: uint64(k + 1), Slot: k, Frame: frame})
	}
	one, all := appendDeliveries(nil, ds[:1]), appendDeliveries(nil, ds)
	f.Add([]byte{})
	f.Add(one)
	f.Add(all)
	f.Add(all[:len(one)+10])   // truncated header of the second frame
	f.Add(all[:len(one)+16+7]) // truncated second frame
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeDeliveries(data)
		if err != nil {
			return
		}
		if again := appendDeliveries(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}

// deliverAll loads a shard as a coordinator's lane would: one frame per
// placement slot, in one DeliverBatch without a sender.
func deliverAll(t testing.TB, s Shard, tweets []tweet.Tweet) {
	t.Helper()
	var parts [ring.Slots]tweet.Batch
	for _, tw := range tweets {
		parts[ring.SlotOf(tw.UserID)].Append(tw)
	}
	var ds []Delivery
	for k := range parts {
		if parts[k].Len() == 0 {
			continue
		}
		frame, err := tweet.AppendFrame(nil, &parts[k])
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, Delivery{Seq: uint64(len(ds) + 1), Slot: k, Frame: frame})
	}
	if err := s.DeliverBatch("", ds); err != nil {
		t.Fatal(err)
	}
}
