package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geomob/internal/census"
	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/synth"
	"geomob/internal/testx"
	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// newClusterTestServer boots a coordinator-mode server over n in-process
// partitions with per-partition stores — the -partitions mode.
func newClusterTestServer(t *testing.T, n int) (*server, *httptest.Server, []*cluster.LocalShard) {
	t.Helper()
	dir := t.TempDir()
	var shards []cluster.Shard
	var locals []*cluster.LocalShard
	for i := 0; i < n; i++ {
		store, err := tweetdb.Open(filepath.Join(dir, "part", string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		shard, err := cluster.NewLocalShard(store, live.Options{BucketWidth: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, shard)
		locals = append(locals, shard)
	}
	coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := newServer(&coordEngine{coord: coord, locals: locals}, testConfig())
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts, locals
}

// corpusNDJSON renders a synthetic corpus as an NDJSON body.
func corpusNDJSON(t *testing.T, tweets []tweet.Tweet) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := tweet.NewNDJSONWriter(&buf)
	for _, tw := range tweets {
		if err := w.Write(tw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestClusterModeEndToEnd drives the in-process multi-partition service:
// NDJSON ingest through the coordinator (durable per-partition stores),
// /v1 answers bit-identical to a single-node pass, cached repeats with
// zero shard folds, and a degradation-aware /healthz.
func TestClusterModeEndToEnd(t *testing.T) {
	s, ts, locals := newClusterTestServer(t, 3)
	coord := s.eng.(*coordEngine).coord

	gen, err := synth.NewGenerator(synth.DefaultConfig(500, 11, 12))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", corpusNDJSON(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	var ing map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || int(ing["ingested"].(float64)) != len(tweets) {
		t.Fatalf("cluster ingest: status %d body %v, want 202", resp.StatusCode, ing)
	}

	// Every record is durable on exactly one partition's store.
	var stored int64
	for _, l := range locals {
		stored += l.Store().Count()
	}
	if stored != int64(len(tweets)) {
		t.Fatalf("partition stores hold %d records, want %d", stored, len(tweets))
	}

	// /v1/population via scatter-gather equals the single-node answer,
	// bit for bit at the Result level.
	sorted := append([]tweet.Tweet(nil), tweets...)
	sort.Sort(tweet.ByUserTime(sorted))
	study := core.NewStudyWithOptions(core.SliceSource(sorted), core.StudyOptions{Workers: 1})
	clusterRes, cached, err := coord.Query(core.Request{})
	if err != nil || cached {
		t.Fatalf("cluster query: cached=%v err=%v", cached, err)
	}
	ref, err := study.Execute(context.Background(), core.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(clusterRes, ref) {
		t.Fatal("cluster /v1 result diverges from single-node execute")
	}

	// HTTP surface: population non-empty and uncached, then cached on
	// repeat with zero additional shard folds.
	pop := fetchJSON(t, ts.URL+"/v1/population?scale=national")
	if pop["cached"].(bool) {
		t.Error("first population query reported cached")
	}
	folds := coord.PartialFetches()
	if !fetchJSON(t, ts.URL+"/v1/population?scale=national")["cached"].(bool) {
		t.Error("repeat population query not cached")
	}
	if got := coord.PartialFetches(); got != folds {
		t.Fatalf("warm repeat issued %d shard folds", got-folds)
	}

	health := fetchJSON(t, ts.URL+"/healthz")
	if health["status"].(string) != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}
	if n := len(health["shards"].([]any)); n != 3 {
		t.Fatalf("healthz lists %d shards, want 3", n)
	}

	// A custom radius folds on the shards like any shape: the /v1 answer
	// is the coordinator's cached Result, bit-identical to a single-node
	// pass.
	if got := fetchJSON(t, ts.URL+"/v1/population?scale=national&radius=30000")["radius"].(float64); got != 30000 {
		t.Fatalf("custom radius in cluster mode: radius %v", got)
	}
	custom := core.Request{Analyses: []core.Analysis{core.AnalysisPopulation}, Scales: []census.Scale{census.ScaleNational}, Radius: 30000}
	clusterRes, cached, err = coord.Query(custom)
	if err != nil || !cached {
		t.Fatalf("custom radius: cached=%v err=%v, want the entry the GET computed", cached, err)
	}
	if ref, err = study.Execute(context.Background(), custom); err != nil {
		t.Fatal(err)
	}
	if !testx.ValuesBitEqual(clusterRes, ref) {
		t.Fatal("custom-radius cluster result diverges from single-node execute")
	}
}

// TestPartitionsResidentBytes: a -partitions node answers for the memory
// of the shards living in it, with and without a snapshot directory —
// the wiring used to keep its shards only when snapshots were on, so
// without them the gauge and any /healthz figure were dark. After an
// ingest and a query every kind is held, and what /metrics and /healthz
// report is the sum over the shards. The partitions' rings share the
// process's one Shape.
func TestPartitionsResidentBytes(t *testing.T) {
	for _, snapDir := range []string{"", t.TempDir()} {
		cfg := testConfig()
		cfg.db, cfg.snapDir, cfg.partitions, cfg.replication = t.TempDir(), snapDir, 2, 1
		eng, err := openEngine(cfg, newBootClock())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.close() })
		ts := httptest.NewServer(newServer(eng, cfg).routes())
		t.Cleanup(ts.Close)

		ingestNDJSON(t, ts.URL, genTweets(t, 300, 41, 42))
		fetchJSON(t, ts.URL+"/v1/population?scale=national")

		var want live.ResidentBytes
		locals := eng.(*coordEngine).locals
		for _, sh := range locals {
			want.Add(sh.Ring().ResidentBytes())
		}
		if len(locals) != 2 || want.Records <= 0 || want.Partials <= 0 || want.Rollups <= 0 {
			t.Fatalf("snapshots %q: %d shards hold %+v, want every kind > 0", snapDir, len(locals), want)
		}
		if locals[0].Ring().Shape != locals[1].Ring().Shape {
			t.Errorf("snapshots %q: the partitions built a Shape each, want one per process", snapDir)
		}
		metrics, _ := scrapeMetrics(t, ts.URL)
		health, _ := fetchJSON(t, ts.URL+"/healthz")["resident_bytes"].(map[string]any)
		for kind, bytes := range map[string]int64{"records": want.Records, "partials": want.Partials, "rollups": want.Rollups} {
			if got := metrics[`geomob_ring_resident_bytes{kind="`+kind+`"}`]; got != float64(bytes) {
				t.Errorf("snapshots %q: geomob_ring_resident_bytes{kind=%s} = %v, shards sum to %d", snapDir, kind, got, bytes)
			}
			if got, _ := health[kind].(float64); got != float64(bytes) {
				t.Errorf("snapshots %q: healthz resident_bytes.%s = %v, shards sum to %d", snapDir, kind, health[kind], bytes)
			}
		}
	}
}

// TestIngestBodyLimit: a request body over -max-ingest-bytes answers 413
// (not 400, not OOM), in both single-node and cluster modes.
func TestIngestBodyLimit(t *testing.T) {
	s, ts := newLiveTestServer(t)
	s.maxIngestBytes = 512

	line := `{"id":1,"user":1,"ts":1,"lat":-33.8,"lon":151.2}` + "\n"
	big := strings.Repeat(line, 64)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// A within-bound upload still works on the same server.
	resp, err = http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within-bound ingest: status %d, want 200", resp.StatusCode)
	}

	sc, tsc, _ := newClusterTestServer(t, 2)
	sc.maxIngestBytes = 512
	resp, err = http.Post(tsc.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("cluster oversized body: status %d, want 413", resp.StatusCode)
	}
}

// downableShard wraps a Shard with an injectable outage: while down,
// every method goes to an HTTPShard whose node has shut down, so it
// answers exactly what an unreachable node does.
type downableShard struct {
	inner cluster.Shard
	dead  cluster.Shard
	down  atomic.Bool
}

// newDownableShard wraps inner; its outage target is a node that has
// already closed its listener.
func newDownableShard(t *testing.T, inner cluster.Shard) *downableShard {
	t.Helper()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	return &downableShard{inner: inner, dead: cluster.NewHTTPShard(gone.URL, nil)}
}

// shard is the member currently answering: inner, or dead while down.
func (d *downableShard) shard() cluster.Shard {
	if d.down.Load() {
		return d.dead
	}
	return d.inner
}

func (d *downableShard) DeliverBatch(sender string, ds []cluster.Delivery) error {
	return d.shard().DeliverBatch(sender, ds)
}

func (d *downableShard) Partials(ctx context.Context, req core.Request, slots []int) ([]*live.ShardPartial, error) {
	return d.shard().Partials(ctx, req, slots)
}

func (d *downableShard) Coverage(ctx context.Context, req core.Request, slots []int) (string, error) {
	return d.shard().Coverage(ctx, req, slots)
}

func (d *downableShard) Health() (cluster.ShardHealth, error) { return d.shard().Health() }

// TestDegradedReadUnavailable is the degraded-read contract on the HTTP
// surface: with a user-range's only replica down, /v1/population and
// /v1/flows answer 503 with a Retry-After header and a JSON body naming
// the missing user-hash ranges — never a silent partial answer.
func TestDegradedReadUnavailable(t *testing.T) {
	var shards []cluster.Shard
	var flaky []*downableShard
	for i := 0; i < 2; i++ {
		inner, err := cluster.NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		d := newDownableShard(t, inner)
		flaky = append(flaky, d)
		shards = append(shards, d)
	}
	coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := newServer(&coordEngine{coord: coord}, testConfig())
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	gen, err := synth.NewGenerator(synth.DefaultConfig(400, 21, 22))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", corpusNDJSON(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d, want 202", resp.StatusCode)
	}
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}

	// Healthy baseline first, so the 503s below are the outage, not a
	// broken pipeline.
	for _, path := range []string{"/v1/population?scale=national", "/v1/flows?scale=national"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy GET %s: status %d", path, resp.StatusCode)
		}
	}

	// With R == 1, shard 0's slots have no surviving replica.
	flaky[0].down.Store(true)
	for _, path := range []string{"/v1/population?scale=national", "/v1/flows?scale=national"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("degraded GET %s: status %d, want 503 (body %v)", path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "5" {
			t.Fatalf("degraded GET %s: Retry-After = %q, want \"5\"", path, ra)
		}
		ranges, ok := body["user_ranges"].([]any)
		if !ok || len(ranges) == 0 {
			t.Fatalf("degraded GET %s: body names no user ranges: %v", path, body)
		}
	}

	// Recovery heals reads without operator action.
	flaky[0].down.Store(false)
	resp, err = http.Get(ts.URL + "/v1/population?scale=national")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered GET: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestLineLimit: one NDJSON line beyond the reader's 1 MiB bound
// answers 413 — an adversarial single-line upload cannot buffer the
// service out of memory.
func TestIngestLineLimit(t *testing.T) {
	_, ts := newLiveTestServer(t)
	long := `{"id":1,"user":1,"ts":1,"lat":-33.8,"lon":151.2,"pad":"` +
		strings.Repeat("x", 1<<20) + `"}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("overlong line: status %d, want 413", resp.StatusCode)
	}
}

// TestInsufficientDataAnswers422: an estimate the window's data cannot
// define — a model fit over fewer than five positive flow pairs, the
// 0.5 km metro rescaling with no user in range — is unprocessable (422
// with the reason), not a server fault (500), identically on a single
// node and through a coordinator.
func TestInsufficientDataAnswers422(t *testing.T) {
	_, single := newLiveTestServer(t)
	_, coord, _ := newClusterTestServer(t, 2)
	// One user, twice at one spot 1 km north of Blacktown's centre:
	// inside the metro scale's 2 km radius, outside the 0.5 km variant's,
	// and no flow between any two areas at any scale.
	thin := []tweet.Tweet{
		{ID: 1, UserID: 7, TS: 1380000000000, Lat: -33.7578, Lon: 150.9054},
		{ID: 2, UserID: 7, TS: 1380000600000, Lat: -33.7578, Lon: 150.9054},
	}
	for mode, ts := range map[string]*httptest.Server{"single": single, "coordinator": coord} {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", corpusNDJSON(t, thin))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for path, reason := range map[string]string{
			"/v1/models?scale=metro":     "positive pairs",
			"/v1/population?scale=metro": "no Twitter user",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", mode, path, err)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), reason) {
				t.Errorf("%s %s: status %d %q, want 422 naming %q", mode, path, resp.StatusCode, msg, reason)
			}
		}
	}
}
