package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/live"
	"geomob/internal/obs"
)

// fetchBytes fetches a URL and returns the raw body, failing on non-200.
func fetchBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestExplainSideEffectFree is the acceptance gate for ?explain=1: the
// result payload is identical to the unexplained response, the cache
// counters move exactly as an unexplained request would move them, and
// the store sees no extra scans — the coverage walk is dry.
func TestExplainSideEffectFree(t *testing.T) {
	s, ts := newLiveTestServer(t)
	e := s.eng.(*ringEngine)
	ingestNDJSON(t, ts.URL, genTweets(t, 300, 21, 22))

	// A custom radius folds like every shape: same cache source, same
	// coverage block.
	for _, q := range []string{"/v1/stats", "/v1/flows?scale=state&radius=30000"} {
		sep := "?"
		if strings.Contains(q, "?") {
			sep = "&"
		}
		_ = fetchBytes(t, ts.URL+q)      // cold miss computes the entry
		plain := fetchBytes(t, ts.URL+q) // warm hit pins the cached bytes
		hits0, misses0 := e.cache.Stats()
		scans0 := e.shard.Store().ScanCount()
		builds0 := e.shard.Ring().Builds()

		explained := fetchBytes(t, ts.URL+q+sep+"explain=1")

		hits1, misses1 := e.cache.Stats()
		if hits1 != hits0+1 || misses1 != misses0 {
			t.Errorf("%s: explain moved cache counters hits %d->%d misses %d->%d; want exactly one hit", q, hits0, hits1, misses0, misses1)
		}
		if got := e.shard.Store().ScanCount(); got != scans0 {
			t.Errorf("%s: explain caused %d store scans", q, got-scans0)
		}
		if got := e.shard.Ring().Builds(); got != builds0 {
			t.Errorf("%s: explain caused %d bucket builds", q, got-builds0)
		}

		var pm, em map[string]any
		if err := json.Unmarshal(plain, &pm); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(explained, &em); err != nil {
			t.Fatal(err)
		}
		ex, ok := em["explain"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no explain block in %s", q, explained)
		}
		delete(em, "explain")
		if !reflect.DeepEqual(pm, em) {
			t.Errorf("%s: explain response differs from plain beyond the explain key:\nplain: %s\nexplained: %s", q, plain, explained)
		}

		cov, ok := ex["coverage"].(map[string]any)
		if !ok {
			t.Fatalf("%s: explain block has no coverage: %v", q, ex)
		}
		if b, _ := cov["buckets"].(float64); b < 1 {
			t.Errorf("%s: coverage.buckets = %v, want >= 1", q, cov["buckets"])
		}
		cache, ok := ex["cache"].(map[string]any)
		if !ok {
			t.Fatalf("%s: explain block has no cache section: %v", q, ex)
		}
		if cache["source"] != "bucket_fold" || cache["hit"] != true {
			t.Errorf("%s: cache disposition = %v, want bucket_fold hit", q, cache)
		}
		if _, ok := cache["coverage_key"].(string); !ok {
			t.Errorf("%s: cache disposition missing coverage_key: %v", q, cache)
		}
		if tid, _ := ex["trace_id"].(string); tid == "" {
			t.Errorf("%s: explain block missing trace_id: %v", q, ex)
		}
		if _, ok := ex["plan"].(map[string]any); !ok {
			t.Errorf("%s: explain block missing plan: %v", q, ex)
		}

		// And the explain'd request left no residue: the next plain fetch is
		// byte-identical to the one before it.
		again := fetchBytes(t, ts.URL+q)
		if string(again) != string(plain) {
			t.Errorf("%s: plain response changed after an explain'd request:\nbefore: %s\nafter: %s", q, plain, again)
		}
	}
}

// TestExplainClusterBlock checks the coordinator's explain section: a
// miss computed by the explain'd request carries the per-shard fold
// breakdown; a warm repeat reports topology but no shard folds.
func TestExplainClusterBlock(t *testing.T) {
	_, ts, _ := newClusterTestServer(t, 3)
	ingestNDJSON(t, ts.URL, genTweets(t, 400, 23, 24))

	const q = "/v1/population?scale=national&explain=1"
	cold := fetchBytes(t, ts.URL+q)
	var cm map[string]any
	if err := json.Unmarshal(cold, &cm); err != nil {
		t.Fatal(err)
	}
	ex, ok := cm["explain"].(map[string]any)
	if !ok {
		t.Fatalf("no explain block in %s", cold)
	}
	cl, ok := ex["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("no cluster section in explain: %v", ex)
	}
	if m, _ := cl["members"].(float64); m != 3 {
		t.Errorf("cluster.members = %v, want 3", cl["members"])
	}
	if rv, _ := cl["ring_version"].(string); rv == "" {
		t.Errorf("cluster.ring_version empty: %v", cl)
	}
	shards, ok := cl["shards"].([]any)
	if !ok || len(shards) == 0 {
		t.Fatalf("cold explain'd miss carries no shard folds: %v", cl)
	}
	var rows float64
	for _, sh := range shards {
		m := sh.(map[string]any)
		if m["member"] == "" {
			t.Errorf("shard fragment without member name: %v", m)
		}
		r, _ := m["rows"].(float64)
		rows += r
		if _, ok := m["coverage"].(map[string]any); !ok {
			t.Errorf("shard fragment without coverage: %v", m)
		}
	}
	if rows <= 0 {
		t.Errorf("shard rows sum to %v, want > 0", rows)
	}
	if _, ok := ex["coverage"].(map[string]any); !ok {
		t.Errorf("cluster explain missing merged coverage: %v", ex)
	}
	cache, _ := ex["cache"].(map[string]any)
	if fp, _ := cache["coverage_fingerprint"].(string); fp == "" {
		t.Errorf("cache section missing coverage_fingerprint: %v", cache)
	}

	warm := fetchBytes(t, ts.URL+q)
	var wm map[string]any
	if err := json.Unmarshal(warm, &wm); err != nil {
		t.Fatal(err)
	}
	wex, _ := wm["explain"].(map[string]any)
	wcl, ok := wex["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("warm explain lost the cluster section: %v", wex)
	}
	if _, has := wcl["shards"]; has {
		t.Errorf("cache-hit explain reports shard folds: %v", wcl)
	}
	wcache, _ := wex["cache"].(map[string]any)
	if wcache["hit"] != true {
		t.Errorf("warm repeat not a cache hit: %v", wcache)
	}
}

// newFederatedCluster boots two real shard nodes over HTTP, each serving
// the shard API plus /metrics like the -cluster-shard binary does, and a
// coordinator-mode server in front of them.
func newFederatedCluster(t *testing.T) (*httptest.Server, []*httptest.Server) {
	t.Helper()
	var shards []cluster.Shard
	var nodes []*httptest.Server
	for i := 0; i < 2; i++ {
		local, err := cluster.NewLocalShard(nil, live.Options{BucketWidth: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", cluster.NewNode(local, cluster.NodeOptions{}))
		mux.Handle("GET /metrics", obs.Handler(obs.Def))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		nodes = append(nodes, srv)
		shards = append(shards, cluster.NewHTTPShard(srv.URL, srv.Client()))
	}
	coord, err := cluster.NewCoordinator(shards, cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := newServer(&coordEngine{coord: coord}, testConfig())
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts, nodes
}

// checkExposition asserts every line of a metrics body is a comment or a
// sample with a parseable value, and returns the sample keys.
func checkExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("unparseable sample %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}
	return samples
}

// TestMetricsClusterFederation: /metrics/cluster merges both members'
// expositions under node labels, and a dead member degrades to
// geomob_member_up{node=...} 0 with the output still valid.
func TestMetricsClusterFederation(t *testing.T) {
	ts, nodes := newFederatedCluster(t)

	body := string(fetchBytes(t, ts.URL+"/metrics/cluster"))
	samples := checkExposition(t, body)
	for _, want := range []string{`geomob_member_up{node="member-000"}`, `geomob_member_up{node="member-001"}`} {
		if samples[want] != "1" {
			t.Errorf("%s = %q, want 1\n%s", want, samples[want], body)
		}
	}
	// Every remote series carries a node label.
	for k := range samples {
		if !strings.Contains(k, `node="`) {
			t.Errorf("federated sample without node label: %q", k)
		}
	}

	// Kill member 1 and scrape again: partial output, down marker, no error.
	nodes[1].Close()
	body = string(fetchBytes(t, ts.URL+"/metrics/cluster"))
	samples = checkExposition(t, body)
	if samples[`geomob_member_up{node="member-000"}`] != "1" {
		t.Errorf("surviving member not up:\n%s", body)
	}
	if samples[`geomob_member_up{node="member-001"}`] != "0" {
		t.Errorf("dead member not marked down:\n%s", body)
	}
	if samples[`geomob_member_scrape_errors{node="member-001"}`] != "1" {
		t.Errorf("dead member scrape error not counted:\n%s", body)
	}
	found := false
	for k := range samples {
		if strings.Contains(k, `node="member-000"`) && !strings.HasPrefix(k, "geomob_member_") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no surviving-member series in degraded scrape:\n%s", body)
	}
}

// TestTraceStoreEndpoints drives /debug/traces end to end: completed
// requests land in the ring, the list is newest-first, the detail view
// resolves the ID the response header carried, and a miss is a 404.
func TestTraceStoreEndpoints(t *testing.T) {
	_, ts := newLiveTestServer(t)
	ingestNDJSON(t, ts.URL, genTweets(t, 150, 25, 26))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get(obs.TraceHeader)
	if tid == "" {
		t.Fatal("query response carries no trace header")
	}

	list := fetchJSON(t, ts.URL+"/debug/traces")
	if n, _ := list["retained"].(float64); n < 2 { // ingest + stats
		t.Errorf("retained = %v, want >= 2", list["retained"])
	}
	traces, ok := list["traces"].([]any)
	if !ok || len(traces) < 2 {
		t.Fatalf("trace list: %v", list)
	}
	newest := traces[0].(map[string]any)
	if newest["id"] != tid || newest["endpoint"] != "/v1/stats" {
		t.Errorf("newest trace = %v, want id %s endpoint /v1/stats", newest, tid)
	}

	detail := fetchJSON(t, ts.URL+"/debug/traces/"+tid)
	if detail["id"] != tid {
		t.Errorf("detail id = %v, want %s", detail["id"], tid)
	}
	if _, ok := detail["total_ms"].(float64); !ok {
		t.Errorf("detail missing total_ms: %v", detail)
	}

	r404, err := http.Get(ts.URL + "/debug/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, r404.Body)
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", r404.StatusCode)
	}

	rbad, err := http.Get(ts.URL + "/debug/traces?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, rbad.Body)
	rbad.Body.Close()
	if rbad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", rbad.StatusCode)
	}
}

// TestExplainConcurrentWithIngest hammers ?explain=1 reads against
// concurrent ingest batches — meaningful chiefly under -race, where any
// unsynchronised explain-path read of the ring or trace store fails.
func TestExplainConcurrentWithIngest(t *testing.T) {
	_, ts := newLiveTestServer(t)
	tweets := genTweets(t, 200, 27, 28)
	ingestNDJSON(t, ts.URL, tweets)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/stats?explain=1")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		ingestNDJSON(t, ts.URL, tweets)
		fetchJSON(t, ts.URL+"/debug/traces?limit=5")
	}
	close(stop)
	wg.Wait()
}
