package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// parseMetrics reads Prometheus text exposition and sums every series by
// its metric name, label sets folded together: the harness asks "how
// many cache hits in all", not "on which endpoint". Histogram series
// keep their _sum, _count and _bucket suffixes as distinct names.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value [timestamp]; a label value may hold spaces
		// and braces, so the value is taken after the closing brace.
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unbalanced braces: %q", n+1, line)
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n+1, err)
		}
		out[name] += v
	}
	return out, nil
}

// metricsDelta is after minus before, name by name; a series absent
// before counts from zero.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// scrape fetches and parses one process's /metrics.
func scrape(p *proc) (map[string]float64, error) {
	resp, err := http.Get(p.url() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(string(data))
}
