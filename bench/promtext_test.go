package main

import "testing"

// metricsSample is cut from a real `mobserve -live` /metrics scrape:
// plain counters, a labelled histogram, a gauge with an escaped label
// value, comments and a blank line.
const metricsSample = `# HELP geomob_cache_hits_total Snapshot cache lookups served without recomputation.
# TYPE geomob_cache_hits_total counter
geomob_cache_hits_total 7433
# HELP geomob_cache_misses_total Snapshot cache lookups that invoked compute.
# TYPE geomob_cache_misses_total counter
geomob_cache_misses_total 10683

# HELP geomob_query_duration_seconds End-to-end latency of one query endpoint request.
# TYPE geomob_query_duration_seconds histogram
geomob_query_duration_seconds_bucket{endpoint="/v1/flows",le="0.001"} 812
geomob_query_duration_seconds_bucket{endpoint="/v1/flows",le="+Inf"} 6021
geomob_query_duration_seconds_sum{endpoint="/v1/flows"} 6.25
geomob_query_duration_seconds_count{endpoint="/v1/flows"} 6021
geomob_query_duration_seconds_sum{endpoint="/v1/stats"} 1.5
geomob_query_duration_seconds_count{endpoint="/v1/stats"} 5980
geomob_query_duration_seconds_sum{endpoint="ingest"} 0.25
geomob_query_duration_seconds_count{endpoint="ingest"} 60
geomob_build_info{version="(devel)",note="a \"quoted\" } brace"} 1
geomob_uptime_seconds 12.5 1727500000000
`

func TestParseMetricsSumsLabelSets(t *testing.T) {
	m, err := parseMetrics(metricsSample)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"geomob_cache_hits_total":              7433,
		"geomob_cache_misses_total":            10683,
		"geomob_query_duration_seconds_sum":    8,
		"geomob_query_duration_seconds_count":  12061,
		"geomob_query_duration_seconds_bucket": 6833,
		"geomob_build_info":                    1,
		"geomob_uptime_seconds":                12.5,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if len(m) != 7 {
		t.Errorf("parsed %d names, want 7: %v", len(m), m)
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics("a_total 10\nb_total{x=\"1\"} 4\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics("a_total 25\nb_total{x=\"1\"} 4\nb_total{x=\"2\"} 3\nc_total 2\n")
	if err != nil {
		t.Fatal(err)
	}
	d := metricsDelta(before, after)
	if d["a_total"] != 15 || d["b_total"] != 3 || d["c_total"] != 2 {
		t.Errorf("delta = %v, want a=15 b=3 c=2", d)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"a_total\n", "a_total x\n", "a_total}x{ 1\n"} {
		if _, err := parseMetrics(text); err == nil {
			t.Errorf("parseMetrics(%q) accepted it", text)
		}
	}
}
