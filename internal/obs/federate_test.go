package obs

import (
	"bytes"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Two members' bodies: a histogram, a counter and a gauge with HELP on
// one, the gauge and the counter alone on the other.
const fedNodeA = `# HELP geomob_store_tweets Tweets in the store.
# TYPE geomob_store_tweets gauge
geomob_store_tweets 100
# TYPE geomob_shard_folds_total counter
geomob_shard_folds_total 7
# TYPE geomob_query_duration_seconds histogram
geomob_query_duration_seconds_bucket{endpoint="/v1/stats",le="0.01"} 3
geomob_query_duration_seconds_bucket{endpoint="/v1/stats",le="+Inf"} 4
geomob_query_duration_seconds_sum{endpoint="/v1/stats"} 0.05
geomob_query_duration_seconds_count{endpoint="/v1/stats"} 4
`

const fedNodeB = `# TYPE geomob_store_tweets gauge
geomob_store_tweets 250
# TYPE geomob_shard_folds_total counter
geomob_shard_folds_total 9
`

func TestMergeExpositionsTwoNodes(t *testing.T) {
	a, b := []byte(fedNodeA), []byte(fedNodeB)
	var buf bytes.Buffer
	err := MergeExpositions(&buf, []ScrapeResult{
		{Node: "member-000", Body: a},
		{Node: "member-001", Body: b},
	})
	if err != nil {
		t.Fatalf("MergeExpositions: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		`geomob_store_tweets{node="member-000"} 100`,
		`geomob_store_tweets{node="member-001"} 250`,
		`geomob_shard_folds_total{node="member-000"} 7`,
		`geomob_shard_folds_total{node="member-001"} 9`,
		`geomob_query_duration_seconds_bucket{node="member-000",endpoint="/v1/stats",le="0.01"} 3`,
		`geomob_query_duration_seconds_sum{node="member-000",endpoint="/v1/stats"} 0.05`,
		`geomob_member_up{node="member-000"} 1`,
		`geomob_member_up{node="member-001"} 1`,
		`geomob_member_scrape_errors{node="member-000"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("merged exposition missing %q\n---\n%s", want, out)
		}
	}
	// One TYPE header per family even though both nodes declared it.
	if n := strings.Count(out, "# TYPE geomob_store_tweets gauge\n"); n != 1 {
		t.Errorf("geomob_store_tweets TYPE header appears %d times, want 1", n)
	}
	// HELP from the node that provided it survives.
	if !strings.Contains(out, "# HELP geomob_store_tweets Tweets in the store.\n") {
		t.Error("HELP line lost in merge")
	}
	validateExposition(t, out)
}

func TestMergeExpositionsDownMember(t *testing.T) {
	up := []byte("# TYPE geomob_store_tweets gauge\ngeomob_store_tweets 5\n")
	var buf bytes.Buffer
	err := MergeExpositions(&buf, []ScrapeResult{
		{Node: "member-000", Body: up},
		{Node: "member-001", Err: errors.New("connection refused")},
	})
	if err != nil {
		t.Fatalf("MergeExpositions with down member: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`geomob_store_tweets{node="member-000"} 5`,
		`geomob_member_up{node="member-000"} 1`,
		`geomob_member_up{node="member-001"} 0`,
		`geomob_member_scrape_errors{node="member-001"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, `geomob_store_tweets{node="member-001"`) {
		t.Error("down member contributed data series")
	}
	validateExposition(t, out)
}

func TestMergeExpositionsAllDown(t *testing.T) {
	var buf bytes.Buffer
	err := MergeExpositions(&buf, []ScrapeResult{
		{Node: "member-000", Err: errors.New("x")},
		{Node: "member-001", Err: errors.New("y")},
	})
	if err != nil {
		t.Fatalf("MergeExpositions all down: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `geomob_member_up{node="member-000"} 0`) ||
		!strings.Contains(out, `geomob_member_up{node="member-001"} 0`) {
		t.Fatalf("all-down exposition lacks down markers:\n%s", out)
	}
	validateExposition(t, out)
}

func TestMergeExpositionsBareNameGetsNodeLabel(t *testing.T) {
	var buf bytes.Buffer
	err := MergeExpositions(&buf, []ScrapeResult{
		{Node: "n0", Body: []byte("geomob_untyped_thing 3\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `geomob_untyped_thing{node="n0"} 3`) {
		t.Fatalf("bare series not relabelled:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE geomob_untyped_thing untyped\n") {
		t.Fatalf("untyped family lacks TYPE header:\n%s", out)
	}
}

func TestMergeExpositionsMalformed(t *testing.T) {
	var buf bytes.Buffer
	err := MergeExpositions(&buf, []ScrapeResult{
		{Node: "n0", Body: []byte("{oops} 3\n")},
	})
	if err == nil {
		t.Fatal("malformed sample line accepted")
	}
}

// exposition line grammar, independent of the merge's own parser: a
// label is name="value" with only \\, \" and \n escaped; a sample is a
// metric name, an optional label block, a value and an optional integer
// timestamp.
var (
	labelRE  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\[\\"n])*"`)
	sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:` + labelRE.String() + `(?:,` + labelRE.String() + `)*,?)?\})?[ \t]+(\S+)(?:[ \t]+-?[0-9]+)?$`)
)

// validateExposition enforces text-format invariants on the merged
// output: every sample line parses with distinct label names and a float
// value, every series belongs to a family whose TYPE header preceded it,
// and no family name is declared twice.
func validateExposition(t *testing.T, doc string) {
	t.Helper()
	typed := map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || !sampleRE.MatchString(fields[2]+" 0") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			if _, dup := typed[fields[2]]; dup {
				t.Fatalf("family %s declared twice", fields[2])
			}
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		names := map[string]bool{}
		for _, l := range labelRE.FindAllStringSubmatch(m[2], -1) {
			if names[l[1]] {
				t.Fatalf("sample %q repeats label %s", line, l[1])
			}
			names[l[1]] = true
		}
		if _, err := strconv.ParseFloat(m[len(m)-1], 64); err != nil {
			t.Fatalf("sample %q has no float value: %v", line, err)
		}
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, found := strings.CutSuffix(m[1], suf); found {
				if typ, ok := typed[cut]; ok && (typ == "histogram" || typ == "summary") {
					base = cut
					break
				}
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE header", line)
		}
	}
}

// FuzzMergeExpositions: whatever two members' bodies hold, federation
// never panics, and whatever it merges is a valid exposition that merging
// the same bodies again reproduces byte for byte.
func FuzzMergeExpositions(f *testing.F) {
	f.Add([]byte(fedNodeA), []byte(fedNodeB), false)
	f.Add([]byte(fedNodeA), []byte(nil), true)
	f.Add([]byte("geomob_untyped_thing 3\n"), []byte("{oops} 3\n"), false)
	f.Add([]byte("# TYPE x counter\nx{node=\"n1\",a=\"q\\\"\"} 1 1700000000000\n"), []byte("# TYPE x gauge\nx 2\n"), false)
	f.Add([]byte("# TYPE geomob_member_up gauge\ngeomob_member_up 1\n"), []byte("x{a=\"1\",a=\"2\"} 1\n"), false)
	r := NewRegistry()
	r.Gauge("app_depth", "Queue depth.", "node", `we"ird\`).Set(3)
	r.Histogram("app_seconds", "Latency.", nil, "stage", "fold").Observe(0.25)
	var reg bytes.Buffer
	if err := r.writePrometheus(&reg); err != nil {
		f.Fatal(err)
	}
	f.Add(reg.Bytes(), []byte(fedNodeB), false)
	f.Fuzz(func(t *testing.T, a, b []byte, bDown bool) {
		results := []ScrapeResult{{Node: "member-000", Body: a}, {Node: "member-001", Body: b}}
		if bDown {
			results[1] = ScrapeResult{Node: "member-001", Err: errors.New("connection refused")}
		}
		var out bytes.Buffer
		if err := MergeExpositions(&out, results); err != nil {
			return
		}
		validateExposition(t, out.String())
		var again bytes.Buffer
		if err := MergeExpositions(&again, results); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("merging the same bodies again gives other bytes (err %v)", err)
		}
	})
}
