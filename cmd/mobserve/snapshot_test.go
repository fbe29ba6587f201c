package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/synth"
	"geomob/internal/tweet"
)

// postNDJSON ingests tweets through POST /v1/ingest and fails the test
// on anything but a clean 200.
func postNDJSON(t *testing.T, url string, tweets []tweet.Tweet) {
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
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
}

// TestSnapshotDrainRestartZeroReplay is the graceful-restart contract
// end to end: run live with a snapshot dir, ingest across a mid-stream
// snapshot commit, flush the final snapshot the drain path runs, and
// boot a second server over the same directories. The restart must
// restore every bucket from snapshot files — no full rescan, no tail
// replay, zero store scans — and answer /v1 byte-identically. So must a
// -cluster-shard node booted over the same directories, through a
// coordinator in front of it.
func TestSnapshotDrainRestartZeroReplay(t *testing.T) {
	dbDir, snapDir := t.TempDir(), t.TempDir()
	s, e := newRingTestServer(t, dbDir, snapDir)
	ts := httptest.NewServer(s.routes())

	gen, err := synth.NewGenerator(synth.DefaultConfig(800, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	cut := len(tweets) / 2
	postNDJSON(t, ts.URL, tweets[:cut])

	// Force a mid-stream commit, then keep ingesting: the final snapshot
	// below must cover the tail incrementally.
	resp, err := http.Post(ts.URL+"/v1/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mid map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mid); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mid["buckets"].(float64) <= 0 {
		t.Fatalf("POST /v1/snapshot: status %d body %v", resp.StatusCode, mid)
	}
	postNDJSON(t, ts.URL, tweets[cut:])

	stats1 := fetchJSON(t, ts.URL+"/v1/stats")
	pop1 := fetchJSON(t, ts.URL+"/v1/population?scale=state")

	// The drain flush main() runs after the listener stops.
	if _, err := e.snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	ts.Close()

	// Restart over the same store and snapshot dir.
	s2, e2 := newRingTestServer(t, dbDir, snapDir)
	store2 := e2.shard.Store()
	rec := e2.recovery
	if rec.FullRescan || rec.Restored == 0 || rec.Backfilled != 0 || rec.SnapErrors != 0 {
		t.Fatalf("restart recovery degraded: %+v", rec)
	}
	if rec.TailSegments != 0 || rec.TailRecords != 0 {
		t.Fatalf("graceful restart replayed a tail: %+v", rec)
	}
	if got := store2.ScanCount(); got != 0 {
		t.Fatalf("restart scanned the store %d times, want 0", got)
	}
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()

	if stats2 := fetchJSON(t, ts2.URL+"/v1/stats"); !reflect.DeepEqual(stats1, stats2) {
		t.Errorf("/v1/stats diverged across restart:\n before %v\n after  %v", stats1, stats2)
	}
	if pop2 := fetchJSON(t, ts2.URL+"/v1/population?scale=state"); !reflect.DeepEqual(pop1, pop2) {
		t.Errorf("/v1/population diverged across restart:\n before %v\n after  %v", pop1, pop2)
	}
	if got := store2.ScanCount(); got != 0 {
		t.Fatalf("restarted /v1 answers scanned the store %d times, want 0", got)
	}

	health := fetchJSON(t, ts2.URL+"/healthz")
	snap, ok := health["snapshot"].(map[string]any)
	if !ok || snap["buckets"].(float64) <= 0 || snap["bytes"].(float64) <= 0 {
		t.Fatalf("healthz snapshot block missing or empty: %v", health["snapshot"])
	}
	if _, ok := snap["age_seconds"]; !ok {
		t.Error("healthz snapshot block lacks age_seconds")
	}
	recov, ok := health["recovery"].(map[string]any)
	if !ok || recov["restored"].(float64) <= 0 || recov["full_rescan"].(bool) {
		t.Fatalf("healthz recovery block wrong: %v", health["recovery"])
	}
	lv, ok := health["live"].(map[string]any)
	if !ok {
		t.Fatal("healthz missing live section")
	}
	if _, ok := lv["rollups"].([]any); !ok {
		t.Errorf("healthz live block lacks rollup tiers: %v", lv["rollups"])
	}

	// A window whose edges cut restored buckets reads those two back from
	// the store, once: one scan, two reloads, two fewer store-only buckets.
	storeOnly, _ := lv["store_only_buckets"].(float64)
	if storeOnly <= 0 {
		t.Fatalf("healthz live.store_only_buckets = %v after a restore", lv["store_only_buckets"])
	}
	before, _ := scrapeMetrics(t, ts2.URL)
	from := time.UnixMilli(tweets[len(tweets)/3].TS).UTC().Add(17 * time.Second).Truncate(time.Second)
	window := "/v1/stats?from=" + from.Format(time.RFC3339) + "&to=" + from.Add(49*time.Hour+7*time.Minute).Format(time.RFC3339)
	fetchJSON(t, ts2.URL+window)
	fetchJSON(t, ts2.URL+window)
	after, _ := scrapeMetrics(t, ts2.URL)
	if got := after["geomob_ring_reloads_total"] - before["geomob_ring_reloads_total"]; got != 2 {
		t.Errorf("geomob_ring_reloads_total moved by %g, want the 2 edge buckets", got)
	}
	if got := after["geomob_ring_reload_seconds_count"] - before["geomob_ring_reload_seconds_count"]; got != 1 {
		t.Errorf("geomob_ring_reload_seconds_count moved by %g, want 1 scan", got)
	}
	if got := store2.ScanCount(); got != 1 {
		t.Errorf("an unaligned window over a restored ring scanned %d times, want 1", got)
	}
	lv, _ = fetchJSON(t, ts2.URL+"/healthz")["live"].(map[string]any)
	if got := lv["store_only_buckets"]; got != storeOnly-2 {
		t.Errorf("healthz live.store_only_buckets = %v after reading 2 of %v back", got, storeOnly)
	}

	// A single node's store and snapshot dir are a shard's: a
	// -cluster-shard node over them restores without a rescan or a tail,
	// publishes a single node's instance gauges, and its partial over all
	// 16 slots assembles to the single node's answers.
	cfg := testConfig()
	cfg.db, cfg.snapDir, cfg.shardNode = dbDir, snapDir, true
	node, _, err := openShardNode(cfg, newBootClock())
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(node)
	defer ts3.Close()
	remote := cluster.NewHTTPShard(ts3.URL, nil)
	h, err := remote.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Recovery == nil || h.Recovery.FullRescan || h.Recovery.Restored == 0 || h.Recovery.TailRecords != 0 {
		t.Fatalf("shard node over a single node's dirs recovered %+v", h.Recovery)
	}
	gauges, _ := scrapeMetrics(t, ts3.URL)
	for name, want := range map[string]float64{
		"geomob_store_tweets":     float64(len(tweets)),
		"geomob_live_buckets":     float64(h.Buckets),
		"geomob_snapshot_buckets": snap["buckets"].(float64),
		"geomob_snapshot_bytes":   snap["bytes"].(float64),
		"geomob_snapshot_written": 0,
	} {
		if got, ok := gauges[name]; !ok || got != want {
			t.Errorf("shard node %s = %v (published %v), want %v", name, got, ok, want)
		}
	}
	if got := gauges["geomob_snapshot_last_unix_ms"]; got <= 0 {
		t.Errorf("shard node geomob_snapshot_last_unix_ms = %v, want the single node's last commit", got)
	}
	coord, err := cluster.NewCoordinator([]cluster.Shard{remote}, cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts4 := httptest.NewServer(newServer(&coordEngine{coord: coord}, testConfig()).routes())
	defer ts4.Close()
	if got := fetchJSON(t, ts4.URL+"/v1/stats"); !reflect.DeepEqual(stats1, got) {
		t.Errorf("/v1/stats over the shard node diverged:\n single %v\n shard  %v", stats1, got)
	}
	if got := fetchJSON(t, ts4.URL+"/v1/population?scale=state"); !reflect.DeepEqual(pop1, got) {
		t.Errorf("/v1/population over the shard node diverged:\n single %v\n shard  %v", pop1, got)
	}
}
