package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geomob/internal/synth"
	"geomob/internal/tweet"
)

// newLiveTestServer boots a ring-engine server over an empty store — the
// situation the CI smoke job reproduces with the real binary.
func newLiveTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, _ := newRingTestServer(t, t.TempDir(), "")
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON fetches a URL and decodes the JSON body.
func fetchJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %v", url, resp.StatusCode, body)
	}
	return body
}

// TestLiveIngestEndToEnd is the in-process version of the CI smoke job:
// boot against an empty store, ingest a generated NDJSON batch, check
// /v1/population and /v1/flows return non-empty results, and check a
// repeat query reports cached with zero new store scans.
func TestLiveIngestEndToEnd(t *testing.T) {
	s, ts := newLiveTestServer(t)
	e := s.eng.(*ringEngine)

	gen, err := synth.NewGenerator(synth.DefaultConfig(800, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
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
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ing map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || int(ing["ingested"].(float64)) != len(tweets) {
		t.Fatalf("ingest: status %d body %v", resp.StatusCode, ing)
	}
	if got := e.shard.Store().Count(); got != int64(len(tweets)) {
		t.Fatalf("store count = %d, want %d", got, len(tweets))
	}

	scans := e.shard.Store().ScanCount()
	pop := fetchJSON(t, ts.URL+"/v1/population?scale=national")
	if pop["cached"].(bool) {
		t.Error("first population query reported cached")
	}
	users := pop["twitter_users"].([]any)
	positive := 0.0
	for _, u := range users {
		positive += u.(float64)
	}
	if len(users) == 0 || positive == 0 {
		t.Fatalf("population empty: %v", pop["twitter_users"])
	}
	flows := fetchJSON(t, ts.URL+"/v1/flows?scale=national")
	if flows["cached"].(bool) || flows["total"].(float64) <= 0 {
		t.Fatalf("flows: cached=%v total=%v", flows["cached"], flows["total"])
	}
	// Repeat queries: served from the snapshot cache, zero new scans.
	if !fetchJSON(t, ts.URL+"/v1/population?scale=national")["cached"].(bool) {
		t.Error("repeat population query not cached")
	}
	if !fetchJSON(t, ts.URL+"/v1/flows?scale=national")["cached"].(bool) {
		t.Error("repeat flows query not cached")
	}
	if got := e.shard.Store().ScanCount(); got != scans {
		t.Fatalf("live /v1 queries scanned the store: %d -> %d", scans, got)
	}
	// A custom radius folds like every shape, still with zero scans.
	over := fetchJSON(t, ts.URL+"/v1/population?scale=national&radius=30000")
	if over["radius"].(float64) != 30000 {
		t.Fatalf("override radius = %v", over["radius"])
	}
	if got := e.shard.Store().ScanCount(); got != scans {
		t.Fatalf("custom radius scanned the store: %d -> %d", scans, got)
	}
	health := fetchJSON(t, ts.URL+"/healthz")
	if _, ok := health["live"]; !ok {
		t.Error("healthz missing live section")
	}
	// Malformed payloads are the caller's fault: 400, not 500.
	bad, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(`{"id":1,"user":`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed ingest status = %d, want 400", bad.StatusCode)
	}
}

// TestLiveIngestInvalidatesOnlyLandedBuckets asserts, through the cache
// hit/miss counters, that an append invalidates exactly the cached
// results whose windows cover the buckets it landed in.
func TestLiveIngestInvalidatesOnlyLandedBuckets(t *testing.T) {
	s, ts := newLiveTestServer(t)
	e := s.eng.(*ringEngine)
	post := func(lines string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(lines))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	line := func(id, user, ts int64, lat, lon float64) string {
		return fmt.Sprintf(`{"id":%d,"user":%d,"ts":%d,"lat":%g,"lon":%g}`+"\n", id, user, ts, lat, lon)
	}
	hour := int64(time.Hour / time.Millisecond)
	// Hours 0..3, users moving between Sydney and Melbourne.
	post(line(1, 10, 0*hour+5000, -33.8688, 151.2093) +
		line(2, 10, 1*hour+5000, -33.8688, 151.2093) +
		line(3, 10, 2*hour+5000, -37.8136, 144.9631) +
		line(4, 20, 0*hour+9000, -37.8136, 144.9631) +
		line(5, 20, 3*hour+9000, -33.8688, 151.2093))

	rfc := func(ms int64) string { return time.UnixMilli(ms).UTC().Format(time.RFC3339) }
	early := ts.URL + "/v1/stats?from=" + rfc(1000) + "&to=" + rfc(2*hour)
	late := ts.URL + "/v1/stats?from=" + rfc(2*hour) + "&to=" + rfc(4*hour)

	if fetchJSON(t, early)["cached"].(bool) {
		t.Error("first early query cached")
	}
	if !fetchJSON(t, early)["cached"].(bool) {
		t.Error("repeat early query not cached")
	}
	if fetchJSON(t, late)["cached"].(bool) {
		t.Error("first late query cached")
	}
	// Ingest into hour 3: the early window's snapshot must stay warm —
	// the store generation moved, but its bucket coverage did not.
	post(line(6, 30, 3*hour+20000, -33.8688, 151.2093))
	if !fetchJSON(t, early)["cached"].(bool) {
		t.Error("early window was invalidated by an append outside it")
	}
	lateAfter := fetchJSON(t, late)
	if lateAfter["cached"].(bool) {
		t.Error("late window survived an append inside it")
	}
	if got := lateAfter["tweets"].(float64); got != 3 {
		t.Errorf("late window tweets = %v, want 3 (new record folded in)", got)
	}
	hits, misses := e.cache.Stats()
	if hits != 2 || misses != 3 {
		t.Errorf("cache stats hits=%d misses=%d, want 2 hits / 3 misses", hits, misses)
	}
}
