package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/synth"
	"geomob/internal/tweetdb"
)

// testConfig is the command line the in-process test servers run under:
// the flag defaults.
func testConfig() config {
	return config{bucket: time.Hour, maxIngestBytes: cluster.DefaultMaxBodyBytes}
}

// newRingTestServer boots a ring engine over the store in dbDir —
// restoring from snapDir when one is given — and a server over it.
func newRingTestServer(t *testing.T, dbDir, snapDir string) (*server, *ringEngine) {
	t.Helper()
	cfg := testConfig()
	cfg.db, cfg.snapDir = dbDir, snapDir
	e, err := openEngine(cfg, newBootClock())
	if err != nil {
		t.Fatal(err)
	}
	return newServer(e, cfg), e.(*ringEngine)
}

// newTestServer builds a server over a small compacted store, which the
// ring backfills at boot.
func newTestServer(t *testing.T) (*server, *ringEngine) {
	t.Helper()
	dir := t.TempDir()
	store, err := tweetdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.NewGenerator(synth.DefaultConfig(800, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(tweets); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	return newRingTestServer(t, dir, "")
}

// getJSON routes a request through the full mux and decodes the JSON body.
func getJSON(t *testing.T, s *server, url string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	var body map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: invalid JSON: %v", url, err)
		}
	}
	return rec.Code, body
}

func TestHandleHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := getJSON(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("status field = %v", body["status"])
	}
	if body["tweets"].(float64) <= 0 {
		t.Errorf("tweets = %v", body["tweets"])
	}
	if body["generation"] == "" {
		t.Error("generation missing")
	}
}

// TestUnversionedEndpointsGone: the pre-/v1 store-scan endpoints are not
// part of the surface, on either engine.
func TestUnversionedEndpointsGone(t *testing.T) {
	ring, _ := newTestServer(t)
	coord, _, _ := newClusterTestServer(t, 1)
	for name, s := range map[string]*server{"ring": ring, "coordinator": coord} {
		for _, url := range []string{"/stats", "/tweets?user=3", "/density.png", "/flows?scale=state"} {
			if code, _ := getJSON(t, s, url); code != http.StatusNotFound {
				t.Errorf("%s engine: GET %s answered %d, want 404", name, url, code)
			}
		}
	}
}

func TestV1Stats(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := getJSON(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["users"].(float64) != 800 {
		t.Errorf("users = %v, want 800", body["users"])
	}
	if body["tweets"].(float64) < body["users"].(float64) {
		t.Errorf("tweets = %v below user count", body["tweets"])
	}
	if body["cached"] != false {
		t.Error("first request reported cached")
	}
	_, body2 := getJSON(t, s, "/v1/stats")
	if body2["cached"] != true {
		t.Error("repeated request not served from the snapshot cache")
	}
}

// TestV1StatsWindow: a windowed stats request only sees in-window tweets.
func TestV1StatsWindow(t *testing.T) {
	s, _ := newTestServer(t)
	_, full := getJSON(t, s, "/v1/stats")
	code, windowed := getJSON(t, s,
		"/v1/stats?from=2013-10-01T00:00:00Z&to=2013-11-01T00:00:00Z")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if windowed["tweets"].(float64) >= full["tweets"].(float64) {
		t.Errorf("windowed tweets = %v, full = %v: window did not restrict",
			windowed["tweets"], full["tweets"])
	}
	first, last := windowed["first"].(string), windowed["last"].(string)
	if first < "2013-10-01" || last >= "2013-11-01" {
		t.Errorf("window not honoured: [%s, %s]", first, last)
	}
}

func TestV1Population(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := getJSON(t, s, "/v1/population?scale=metropolitan")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	areas := body["areas"].([]any)
	users := body["twitter_users"].([]any)
	if len(areas) == 0 || len(areas) != len(users) {
		t.Fatalf("%d areas, %d user counts", len(areas), len(users))
	}
	if body["c"].(float64) <= 0 {
		t.Errorf("rescaling factor c = %v", body["c"])
	}
	if body["radius"].(float64) <= 0 {
		t.Errorf("radius = %v", body["radius"])
	}
	// An explicit radius overrides the default and is reflected back.
	code, body = getJSON(t, s, "/v1/population?scale=metropolitan&radius=500")
	if code != http.StatusOK {
		t.Fatalf("radius=500: status %d", code)
	}
	if body["radius"].(float64) != 500 {
		t.Errorf("radius = %v, want 500", body["radius"])
	}
}

func TestV1Models(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := getJSON(t, s, "/v1/models?scale=national")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	fits := body["fits"].([]any)
	if len(fits) != 3 {
		t.Fatalf("%d fits, want 3 (gravity4, gravity2, radiation)", len(fits))
	}
	for _, f := range fits {
		fit := f.(map[string]any)
		if fit["name"] == "" || fit["metrics"] == nil {
			t.Errorf("incomplete fit: %v", fit)
		}
	}
	if body["total_flow"].(float64) <= 0 {
		t.Errorf("total_flow = %v", body["total_flow"])
	}
}

// TestV1FlowsSnapshotCache is the caching acceptance test: the store is
// scanned once, to fill the ring at boot, and never by a query; a
// repeated request is a bucket_fold cache hit; and an ingest invalidates
// exactly the snapshots whose window covers the bucket it landed in.
func TestV1FlowsSnapshotCache(t *testing.T) {
	s, e := newTestServer(t)
	scansAtBoot := e.shard.Store().ScanCount()
	if scansAtBoot == 0 {
		t.Fatal("boot did not backfill the ring from the store")
	}
	code, first := getJSON(t, s, "/v1/flows?scale=state")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first["cached"] != false {
		t.Error("first request reported cached")
	}
	if len(first["areas"].([]any)) == 0 {
		t.Error("no areas in flow response")
	}

	code, second := getJSON(t, s, "/v1/flows?scale=state&explain=1")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if second["cached"] != true {
		t.Error("repeated request not served from the snapshot cache")
	}
	disp, _ := second["explain"].(map[string]any)["cache"].(map[string]any)
	if disp["source"] != "bucket_fold" || disp["hit"] != true {
		t.Errorf("repeat's cache disposition = %v, want a bucket_fold hit", disp)
	}
	if got := e.shard.Store().ScanCount(); got != scansAtBoot {
		t.Errorf("queries scanned the store: %d scans, %d at boot", got, scansAtBoot)
	}
	if !reflect.DeepEqual(first["flows"], second["flows"]) {
		t.Error("cached flows differ from the computed ones")
	}

	// A different request computes its own snapshot...
	_, national := getJSON(t, s, "/v1/flows?scale=national")
	if national["cached"] != false {
		t.Error("different request served from an unrelated snapshot")
	}
	// ...and a record ingested into a bucket the window covers moves that
	// bucket's revision, invalidating the snapshots over it.
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest",
		strings.NewReader(`{"id":1099511627776,"user":1099511627776,"ts":1380600000000,"lat":-33.87,"lon":151.21}`+"\n")))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	code, third := getJSON(t, s, "/v1/flows?scale=state")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if third["cached"] != true && third["cached"] != false {
		t.Fatal("missing cached field")
	}
	if third["cached"] == true {
		t.Error("stale snapshot served after the ring changed")
	}
	if got := e.shard.Store().ScanCount(); got != scansAtBoot {
		t.Errorf("ingest or the refold scanned the store: %d scans, %d at boot", got, scansAtBoot)
	}
}

func TestV1BadParams(t *testing.T) {
	s, _ := newTestServer(t)
	for _, url := range []string{
		"/v1/flows?scale=galactic",
		"/v1/population?scale=metropolitan&radius=-5",
		"/v1/population?scale=metropolitan&radius=abc",
		"/v1/models?from=notatime",
		"/v1/stats?from=2014-01-01T00:00:00Z&to=2013-01-01T00:00:00Z",
		// Scale-independent endpoints reject scale/radius instead of
		// silently ignoring them (and fragmenting the cache keys).
		"/v1/stats?scale=state",
		"/v1/stats?radius=500",
		// ParseFloat accepts NaN/Inf spellings; the validation must not.
		"/v1/population?scale=metropolitan&radius=NaN",
		"/v1/flows?scale=state&radius=%2BInf",
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

// TestV1EmptyWindow: a window containing no tweets is a 404 on every
// endpoint, not an epoch-dated answer, a model-fit 500, or a stale cache
// entry.
func TestV1EmptyWindow(t *testing.T) {
	s, _ := newTestServer(t)
	for _, url := range []string{
		"/v1/stats?from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/population?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/models?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/flows?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, rec.Code)
		}
	}
}
