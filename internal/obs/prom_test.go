package obs

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseExposition validates the text format line by line: every
// non-comment line must be `name{labels} value` with a parseable float,
// every series name must be announced by a preceding # TYPE.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	typed := map[string]string{}
	vals := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valstr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valstr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("series %q has no # TYPE header", name)
		}
		vals[key] = v
	}
	return vals
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "Total events.").Add(7)
	r.Gauge("app_depth", "Queue depth.", "node", `we"ird\`).Set(3)
	h := r.Histogram("app_lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	vals := parseExposition(t, body)

	if vals["app_events_total"] != 7 {
		t.Fatalf("counter sample = %v, want 7", vals["app_events_total"])
	}
	if vals[`app_depth{node="we\"ird\\"}`] != 3 {
		t.Fatalf("escaped gauge sample missing; body:\n%s", body)
	}

	// Histogram: cumulative, monotone buckets ending at +Inf == _count.
	buckets := []struct {
		key  string
		want float64
	}{
		{`app_lat_seconds_bucket{le="0.01"}`, 1},
		{`app_lat_seconds_bucket{le="0.1"}`, 2},
		{`app_lat_seconds_bucket{le="1"}`, 3},
		{`app_lat_seconds_bucket{le="+Inf"}`, 4},
	}
	prev := -1.0
	for _, bk := range buckets {
		got, ok := vals[bk.key]
		if !ok {
			t.Fatalf("missing bucket %s; body:\n%s", bk.key, body)
		}
		if got != bk.want {
			t.Fatalf("%s = %v, want %v", bk.key, got, bk.want)
		}
		if got < prev {
			t.Fatalf("bucket counts not monotone at %s", bk.key)
		}
		prev = got
	}
	if vals["app_lat_seconds_count"] != 4 {
		t.Fatalf("_count = %v, want 4", vals["app_lat_seconds_count"])
	}
	if s := vals["app_lat_seconds_sum"]; s < 5.5 || s > 5.6 {
		t.Fatalf("_sum = %v, want ~5.555", s)
	}

	// Families must be sorted by name.
	iEvents := strings.Index(body, "# TYPE app_events_total")
	iLat := strings.Index(body, "# TYPE app_lat_seconds")
	if iEvents < 0 || iLat < 0 || iEvents > iLat {
		t.Fatalf("families not sorted:\n%s", body)
	}
}

func TestHandlerConcatenatesRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("first_total", "h").Inc()
	b.GaugeFunc("second_value", "h", func() float64 { return 9 })

	rec := httptest.NewRecorder()
	Handler(a, b, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	vals := parseExposition(t, rec.Body.String())
	if vals["first_total"] != 1 || vals["second_value"] != 9 {
		t.Fatalf("concatenated body wrong:\n%s", rec.Body.String())
	}
}

func TestBuildMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterBuildMetrics(r)
	RegisterBuildMetrics(r) // idempotent
	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "geomob_build_info{") {
		t.Fatalf("no build info gauge:\n%s", body)
	}
	vals := parseExposition(t, body)
	if vals["geomob_uptime_seconds"] < 0 {
		t.Fatal("negative uptime")
	}
	bi := Build()
	if bi.GoVersion == "" {
		t.Fatal("empty go version")
	}
}
