package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/live"
	"geomob/internal/obs"
	"geomob/internal/synth"
	"geomob/internal/tweet"
)

// genTweets builds a small synthetic corpus.
func genTweets(t *testing.T, n int, s1, s2 uint64) []tweet.Tweet {
	t.Helper()
	gen, err := synth.NewGenerator(synth.DefaultConfig(n, s1, s2))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	return tweets
}

// ingestNDJSON posts the corpus through POST /v1/ingest.
func ingestNDJSON(t *testing.T, base string, tweets []tweet.Tweet) {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest", "application/x-ndjson", corpusNDJSON(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
}

// scrapeMetrics fetches /metrics and validates the exposition format
// while parsing it: every sample line must carry a parseable float and
// resolve (directly or via a histogram _bucket/_sum/_count suffix) to a
// family announced by a # TYPE header with a legal type. Returns the
// samples keyed `name` or `name{labels}` plus the family→type map.
func scrapeMetrics(t *testing.T, base string) (map[string]float64, map[string]string) {
	t.Helper()
	return scrapeExposition(t, base+"/metrics")
}

// scrapeExposition is scrapeMetrics over any exposition endpoint.
func scrapeExposition(t *testing.T, url string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("illegal type in %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		key := line[:i]
		samples[key] = v
		name := key
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && types[trimmed] == "histogram" {
				fam = trimmed
			}
		}
		if _, ok := types[fam]; !ok {
			t.Fatalf("sample %q has no TYPE header", line)
		}
	}
	return samples, types
}

// checkBucketsMonotone asserts the family's cumulative buckets are
// non-decreasing in le order within every label set.
func checkBucketsMonotone(t *testing.T, samples map[string]float64, family string) {
	t.Helper()
	type bkt struct {
		le float64
		v  float64
	}
	series := map[string][]bkt{}
	for k, v := range samples {
		if !strings.HasPrefix(k, family+"_bucket{") {
			continue
		}
		j := strings.Index(k, `le="`)
		if j < 0 {
			t.Fatalf("bucket sample without le: %q", k)
		}
		end := strings.IndexByte(k[j+4:], '"')
		leRaw := k[j+4 : j+4+end]
		le := float64(0)
		if leRaw == "+Inf" {
			le = 1e308
		} else {
			f, err := strconv.ParseFloat(leRaw, 64)
			if err != nil {
				t.Fatalf("bad le %q in %q", leRaw, k)
			}
			le = f
		}
		ident := k[:j] + k[j+4+end:]
		series[ident] = append(series[ident], bkt{le, v})
	}
	if len(series) == 0 {
		t.Fatalf("no %s_bucket series found", family)
	}
	for ident, bs := range series {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].v < bs[i-1].v {
				t.Fatalf("%s buckets not cumulative at le=%g: %g < %g", ident, bs[i].le, bs[i].v, bs[i-1].v)
			}
		}
	}
}

// healthzKeys are the sorted top-level keys of a /healthz body.
func healthzKeys(body map[string]any) string {
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestHealthzShape pins the single-node /healthz JSON contract: every key
// the body has ever carried, the live block on every boot (the ring is
// the only backend), and nothing else.
func TestHealthzShape(t *testing.T) {
	_, ts := newLiveTestServer(t)
	corpus := genTweets(t, 200, 7, 8)
	ingestNDJSON(t, ts.URL, corpus)
	fetchJSON(t, ts.URL+"/v1/stats") // populate the query latency histogram
	body := fetchJSON(t, ts.URL+"/healthz")
	if got, want := healthzKeys(body), "build cache generation latency live scans status tweets"; got != want {
		t.Errorf("healthz keys %q, want %q", got, want)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v", body["status"])
	}
	if got := body["tweets"].(float64); got != float64(len(corpus)) {
		t.Errorf("tweets = %v, want %d", got, len(corpus))
	}
	cache, ok := body["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache block: %v", body["cache"])
	}
	for _, k := range []string{"hits", "misses"} {
		if _, ok := cache[k]; !ok {
			t.Errorf("cache block missing %q", k)
		}
	}
	lv, ok := body["live"].(map[string]any)
	if !ok {
		t.Fatalf("live block: %v", body["live"])
	}
	for _, k := range []string{"buckets", "width", "ingested", "builds", "rollups", "resident_bytes", "store_only_buckets"} {
		if _, ok := lv[k]; !ok {
			t.Errorf("live block missing %q", k)
		}
	}
	// Nothing was restored from a snapshot, so nothing is store-only.
	if v := lv["store_only_buckets"]; v != float64(0) {
		t.Errorf("live.store_only_buckets = %v without a restore, want 0", v)
	}
	// The /v1/stats query above materialised the ring, so every kind of
	// resident heap is held — at the very least the raw columns' 80 B a
	// record.
	res, _ := lv["resident_bytes"].(map[string]any)
	for _, k := range []string{"records", "partials", "rollups"} {
		if v, _ := res[k].(float64); v <= 0 {
			t.Errorf("live.resident_bytes[%q] = %v, want > 0", k, res[k])
		}
	}
	if v, _ := res["records"].(float64); v < 80*float64(len(corpus)) {
		t.Errorf("live.resident_bytes.records = %v for %d records", v, len(corpus))
	}
	bld, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("build block: %v", body["build"])
	}
	for _, k := range []string{"version", "revision", "go", "uptime_seconds"} {
		if _, ok := bld[k]; !ok {
			t.Errorf("build block missing %q", k)
		}
	}
	lat, ok := body["latency"].(map[string]any)
	if !ok {
		t.Fatalf("latency block: %v", body["latency"])
	}
	for _, k := range []string{"query", "stages"} {
		if _, ok := lat[k]; !ok {
			t.Errorf("latency block missing %q", k)
		}
	}
	// The block lists the stages this process books: the single node's
	// own ingest and query paths, not a coordinator's.
	stages, _ := lat["stages"].(map[string]any)
	for _, st := range []string{"decode", "store", "resolve", "ring", "cache_lookup", "fold", "encode"} {
		if _, ok := stages[st]; !ok {
			t.Errorf("latency.stages missing %q: %v", st, stages)
		}
	}
	for _, st := range []string{"scatter", "merge", "route", "spool"} {
		if _, ok := stages[st]; ok {
			t.Errorf("a single node's latency.stages lists the coordinator's %q", st)
		}
	}
	if q, _ := stages["store"].(map[string]any); q == nil || q["p50_ms"].(float64) <= 0 {
		t.Errorf("latency.stages.store after one ingest: %v", stages["store"])
	}
	query, _ := lat["query"].(map[string]any)
	for _, ep := range []string{"/v1/stats", "/v1/population", "/v1/models", "/v1/flows", "ingest"} {
		qs, ok := query[ep].(map[string]any)
		if !ok {
			t.Errorf("latency.query missing endpoint %q: %v", ep, query)
			continue
		}
		for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
			if _, ok := qs[k].(float64); !ok {
				t.Errorf("latency.query[%q] missing %q: %v", ep, k, qs)
			}
		}
	}
	// The /v1/stats request above observed into its histogram, so its
	// quantiles must be positive; never-hit endpoints report zero.
	if q, _ := query["/v1/stats"].(map[string]any); q != nil {
		if p50, _ := q["p50_ms"].(float64); p50 <= 0 {
			t.Errorf("latency.query[/v1/stats].p50_ms = %v, want > 0", q["p50_ms"])
		}
	}

	// With a snapshot directory the recovery block reports what boot
	// recovery did and, beside those keys, how long it took.
	snapped, _ := newRingTestServer(t, t.TempDir(), t.TempDir())
	ts2 := httptest.NewServer(snapped.routes())
	defer ts2.Close()
	body = fetchJSON(t, ts2.URL+"/healthz")
	if got, want := healthzKeys(body), "build cache generation latency live recovery scans snapshot status tweets"; got != want {
		t.Errorf("healthz keys with a snapshot directory %q, want %q", got, want)
	}
	recov, ok := body["recovery"].(map[string]any)
	if !ok {
		t.Fatal("healthz of a snapshotting server lacks the recovery block")
	}
	for _, k := range []string{"restored", "backfilled", "snapshot_errors", "full_rescan", "tail_segments", "tail_records", "seconds"} {
		if _, ok := recov[k]; !ok {
			t.Errorf("recovery block missing %q: %v", k, recov)
		}
	}
	if sec, _ := recov["seconds"].(float64); sec <= 0 {
		t.Errorf("recovery.seconds = %v, want > 0", recov["seconds"])
	}
}

// TestMetricsEndToEnd scrapes /metrics around an ingest + query cycle:
// the exposition stays parseable, ingest and query series move by the
// expected amounts, histogram buckets are cumulative, and no counter
// ever decreases.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newLiveTestServer(t)
	before, beforeTypes := scrapeMetrics(t, ts.URL)

	tweets := genTweets(t, 300, 9, 10)
	ingestNDJSON(t, ts.URL, tweets)
	fetchJSON(t, ts.URL+"/v1/population?scale=national")
	fetchJSON(t, ts.URL+"/v1/population?scale=national") // warm repeat → cache hit

	after, _ := scrapeMetrics(t, ts.URL)

	if got := after["geomob_ingest_records_total"] - before["geomob_ingest_records_total"]; got < float64(len(tweets)) {
		t.Errorf("geomob_ingest_records_total moved by %g, want >= %d", got, len(tweets))
	}
	durCount := `geomob_query_duration_seconds_count{endpoint="/v1/population"}`
	if after[durCount]-before[durCount] < 2 {
		t.Errorf("%s moved by %g, want >= 2", durCount, after[durCount]-before[durCount])
	}
	found := false
	for k := range after {
		if strings.HasPrefix(k, `geomob_query_duration_seconds_bucket{endpoint="/v1/population"`) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no geomob_query_duration_seconds_bucket series for /v1/population")
	}
	if got := after["geomob_cache_hits_total"] - before["geomob_cache_hits_total"]; got < 1 {
		t.Errorf("geomob_cache_hits_total moved by %g, want >= 1", got)
	}
	checkBucketsMonotone(t, after, "geomob_query_duration_seconds")
	checkBucketsMonotone(t, after, "geomob_ingest_flush_seconds")

	// The unbounded population query closed day and month groups over the
	// corpus: the per-tier rollup series moved, and the repeat was served
	// from the cache above them, not by re-merging.
	for _, tier := range []string{"24", "720"} {
		builds := `geomob_ring_rollup_builds_total{tier="` + tier + `"}`
		if after[builds]-before[builds] < 1 {
			t.Errorf("%s moved by %g, want >= 1", builds, after[builds]-before[builds])
		}
		if _, ok := after[`geomob_ring_rollup_hits_total{tier="`+tier+`"}`]; !ok {
			t.Errorf("no geomob_ring_rollup_hits_total series for tier %s", tier)
		}
	}
	// The ring accounts for what it holds by kind, next to the runtime's
	// own view of the heap.
	for _, kind := range []string{"records", "partials", "rollups"} {
		if k := `geomob_ring_resident_bytes{kind="` + kind + `"}`; after[k] <= before[k] {
			t.Errorf("%s = %g after the ingest and query, %g before", k, after[k], before[k])
		}
	}
	for _, k := range []string{"geomob_go_heap_live_bytes", "geomob_go_heap_goal_bytes", "geomob_go_goroutines"} {
		if after[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, after[k])
		}
	}
	if _, ok := after["geomob_go_gc_pause_p99_seconds"]; !ok {
		t.Error("no geomob_go_gc_pause_p99_seconds series")
	}
	// Reloads of restored buckets are exported before any happens
	// (TestSnapshotDrainRestartZeroReplay moves them).
	for _, k := range []string{"geomob_ring_reloads_total", "geomob_ring_reload_seconds_count"} {
		if _, ok := after[k]; !ok {
			t.Errorf("no %s series", k)
		}
	}
	// The boot clock marked the phases the ring engine's hydration ran.
	for _, phase := range []string{"shape", "recover"} {
		if _, ok := after[`geomob_boot_seconds{phase="`+phase+`"}`]; !ok {
			t.Errorf("no geomob_boot_seconds series for phase %s", phase)
		}
	}

	// Counters only ever go up.
	for k, v := range before {
		name := k
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && beforeTypes[trimmed] == "histogram" {
				fam = trimmed
			}
		}
		monotone := beforeTypes[fam] == "counter" || beforeTypes[fam] == "histogram"
		if av, ok := after[k]; ok && monotone && av < v {
			t.Errorf("series %s decreased: %g -> %g", k, v, av)
		}
	}
}

// TestMetricsConcurrentScrape hammers /metrics while batches ingest —
// meaningful chiefly under -race, where any unsynchronised registry
// read fails the run.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newLiveTestServer(t)
	tweets := genTweets(t, 150, 11, 12)

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
				resp, err := http.Get(ts.URL + "/metrics")
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
		fetchJSON(t, ts.URL+"/healthz")
	}
	close(stop)
	wg.Wait()
	scrapeMetrics(t, ts.URL)
}

// TestSlowQueryLog drops the threshold to one nanosecond so every query
// logs, and asserts the line is structured JSON carrying the caller's
// trace ID, a stage breakdown and the total the retained trace at
// /debug/traces/{id} records — and that the trace ID echoes on the
// response header.
func TestSlowQueryLog(t *testing.T) {
	s, ts := newLiveTestServer(t)
	ingestNDJSON(t, ts.URL, genTweets(t, 200, 13, 14))
	s.slowQuery = time.Nanosecond

	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	const tid = "feedbeef00112233"
	req.Header.Set(obs.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != tid {
		t.Errorf("response trace header = %q, want %q", got, tid)
	}
	line := buf.String()
	for _, want := range []string{`"slow_query":true`, `"trace_id":"` + tid + `"`, `"stages":[`, `"endpoint":"/v1/stats"`} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query log missing %s:\n%s", want, line)
		}
	}
	var logged struct {
		TotalMs float64 `json:"total_ms"`
	}
	for _, l := range strings.Split(line, "\n") {
		if i := strings.Index(l, `{"`); i >= 0 && strings.Contains(l, `"slow_query":true`) {
			if err := json.Unmarshal([]byte(l[i:]), &logged); err != nil {
				t.Fatalf("slow-query log line is not one JSON object: %v\n%s", err, l)
			}
		}
	}
	if kept := fetchJSON(t, ts.URL+"/debug/traces/"+tid)["total_ms"]; logged.TotalMs != kept {
		t.Errorf("slow-query log total_ms %v, the retained trace's %v", logged.TotalMs, kept)
	}
}

// TestDegraded503CarriesTraceID: an unavailable cluster read answers
// 503 with the caller's trace ID in the JSON body, so the failure is
// correlatable with coordinator and shard logs.
func TestDegraded503CarriesTraceID(t *testing.T) {
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

	ingestNDJSON(t, ts.URL, genTweets(t, 300, 15, 16))
	if err := coord.Flush(); err != nil {
		t.Fatal(err)
	}

	// With R == 1, shard 0's slots have no surviving replica.
	flaky[0].down.Store(true)
	req, err := http.NewRequest("GET", ts.URL+"/v1/population?scale=national", nil)
	if err != nil {
		t.Fatal(err)
	}
	const tid = "0123456789abcdef"
	req.Header.Set(obs.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %v)", resp.StatusCode, body)
	}
	if got, _ := body["trace_id"].(string); got != tid {
		t.Fatalf("503 body trace_id = %q, want %q (body %v)", got, tid, body)
	}
}

// TestIngestStagesSumToWall: a single-node POST /v1/ingest — binary and
// NDJSON alike — leaves a retained trace whose decode, store,
// resolve and ring stages appear once each, in that order, none
// negative, and sum to within 5 % of the trace's wall time: the stages
// are cut from one clock inside the drain, so only what the handler does
// around it (the reply) is unattributed. The same four land in
// geomob_ingest_stage_seconds.
func TestIngestStagesSumToWall(t *testing.T) {
	_, ts := newLiveTestServer(t)
	before, _ := scrapeMetrics(t, ts.URL)
	tweets := genTweets(t, 3000, 33, 34)
	var frames []byte
	for off := 0; off < len(tweets); off += 4096 {
		var err error
		if frames, err = tweet.AppendFrame(frames, tweet.BatchOf(tweets[off:min(len(tweets), off+4096)])); err != nil {
			t.Fatal(err)
		}
	}
	for _, post := range []struct {
		contentType string
		body        io.Reader
	}{
		{tweet.BatchContentType, bytes.NewReader(frames)},
		{"application/x-ndjson", corpusNDJSON(t, tweets)},
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", post.contentType, post.body)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest: status %d", post.contentType, resp.StatusCode)
		}
		detail := fetchJSON(t, ts.URL+"/debug/traces/"+resp.Header.Get(obs.TraceHeader))
		stages, _ := detail["stages"].([]any)
		var names []string
		var sum float64
		for _, st := range stages {
			m := st.(map[string]any)
			names = append(names, m["stage"].(string))
			ms := m["ms"].(float64)
			if ms < 0 {
				t.Errorf("%s ingest: stage %v took %v ms", post.contentType, m["stage"], ms)
			}
			sum += ms
		}
		if got, want := strings.Join(names, ","), "decode,store,resolve,ring"; got != want {
			t.Fatalf("%s ingest: trace stages %q, want %q", post.contentType, got, want)
		}
		if total := detail["total_ms"].(float64); sum > total || sum < 0.95*total {
			t.Errorf("%s ingest: stages sum to %.3f ms of a %.3f ms request (%v)", post.contentType, sum, total, stages)
		}
	}
	after, _ := scrapeMetrics(t, ts.URL)
	for _, st := range []string{"decode", "store", "resolve", "ring"} {
		key := `geomob_ingest_stage_seconds_count{stage="` + st + `"}`
		if got := after[key] - before[key]; got != 2 {
			t.Errorf("%s moved by %v over two requests", key, got)
		}
	}
}

// TestIngestTraceStages: a coordinator-mode POST /v1/ingest — NDJSON and
// binary alike — leaves a retained trace whose decode, route, spool and
// deliver stages appear once each, in that order, and account for the
// handler's time (they are cut from one wall clock, so they can fall
// short of the trace total only by what the handler does around the
// drain); the same four stages then show in /healthz's latency block.
func TestIngestTraceStages(t *testing.T) {
	_, ts, _ := newClusterTestServer(t, 2)
	tweets := genTweets(t, 120, 31, 32)
	frame, err := tweet.AppendFrame(nil, tweet.BatchOf(tweets))
	if err != nil {
		t.Fatal(err)
	}
	for _, post := range []struct {
		contentType string
		body        io.Reader
	}{
		{"application/x-ndjson", corpusNDJSON(t, tweets)},
		{tweet.BatchContentType, bytes.NewReader(frame)},
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", post.contentType, post.body)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s ingest: status %d", post.contentType, resp.StatusCode)
		}
		detail := fetchJSON(t, ts.URL+"/debug/traces/"+resp.Header.Get(obs.TraceHeader))
		stages, _ := detail["stages"].([]any)
		var names []string
		var sum float64
		for _, st := range stages {
			m := st.(map[string]any)
			names = append(names, m["stage"].(string))
			ms := m["ms"].(float64)
			if ms < 0 {
				t.Errorf("%s ingest: stage %v took %v ms", post.contentType, m["stage"], ms)
			}
			sum += ms
		}
		if got := strings.Join(names, ","); got != "decode,route,spool,deliver" {
			t.Fatalf("%s ingest: trace stages %q, want decode,route,spool,deliver", post.contentType, got)
		}
		total := detail["total_ms"].(float64)
		if sum > total || sum < total/2 {
			t.Errorf("%s ingest: stages sum to %.3f ms of a %.3f ms request", post.contentType, sum, total)
		}
	}
	lat := fetchJSON(t, ts.URL+"/healthz")["latency"].(map[string]any)["stages"].(map[string]any)
	for _, st := range cluster.IngestStages {
		if q, ok := lat[st].(map[string]any); !ok || q["p50_ms"] == nil {
			t.Errorf("healthz latency.stages missing ingest stage %q: %v", st, lat)
		}
	}
}

// TestQueryStagesSumToWall: a GET's retained trace — on a single node
// and on a -partitions 2 coordinator, for a miss and a warm hit of
// /v1/population and /v1/flows — lists its engine's stages in pipeline
// order, none negative, ends in encode exactly once, and sums to 95–100 %
// of total_ms: every stage and the encode remainder are cut from one
// request clock. An in-process partition's shard_fold is that shard's
// own stage, nested inside fold and concurrent with its siblings, so it
// is checked against fold rather than summed.
func TestQueryStagesSumToWall(t *testing.T) {
	_, single := newLiveTestServer(t)
	_, coord, _ := newClusterTestServer(t, 2)
	for _, tc := range []struct {
		mode      string
		base      string
		miss, hit string
	}{
		{"single node", single.URL, "cache_lookup,fold,encode", "cache_lookup,encode"},
		{"coordinator", coord.URL, "scatter,fold,merge,assemble,encode", "scatter,encode"},
	} {
		ingestNDJSON(t, tc.base, genTweets(t, 400, 35, 36))
		for _, path := range []string{"/v1/population?scale=national", "/v1/flows?scale=state"} {
			for _, want := range []string{tc.miss, tc.hit} {
				resp, err := http.Get(tc.base + path)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: status %d", tc.mode, path, resp.StatusCode)
				}
				detail := fetchJSON(t, tc.base+"/debug/traces/"+resp.Header.Get(obs.TraceHeader))
				var names []string
				var sum, fold float64
				var shardFolds []float64
				for _, st := range detail["stages"].([]any) {
					m := st.(map[string]any)
					name, ms := m["stage"].(string), m["ms"].(float64)
					if ms < 0 {
						t.Errorf("%s %s: stage %s took %v ms", tc.mode, path, name, ms)
					}
					if name == "shard_fold" {
						shardFolds = append(shardFolds, ms)
						continue
					}
					if name == "fold" {
						fold = ms
					}
					names = append(names, name)
					sum += ms
				}
				if got := strings.Join(names, ","); got != want {
					t.Fatalf("%s %s: trace stages %q, want %q", tc.mode, path, got, want)
				}
				if total := detail["total_ms"].(float64); sum > total || sum < 0.95*total {
					t.Errorf("%s %s (%s): stages sum to %.3f ms of a %.3f ms request", tc.mode, path, want, sum, total)
				}
				if tc.mode == "coordinator" && want == tc.miss && len(shardFolds) != 2 {
					t.Errorf("%s %s: %d shard_fold stages on a miss over two partitions", tc.mode, path, len(shardFolds))
				}
				for _, ms := range shardFolds {
					if ms > fold {
						t.Errorf("%s %s: shard_fold %.3f ms outlasts its fold %.3f ms", tc.mode, path, ms, fold)
					}
				}
			}
		}
	}
}
