package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkStudyRun/workers=1         \t       1\t 830544851 ns/op\t    658610 tweets/op\t61307376 B/op\t    3540 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("expected a parse")
	}
	if r.Name != "BenchmarkStudyRun/workers=1" || r.Iterations != 1 {
		t.Errorf("name/iters = %q/%d", r.Name, r.Iterations)
	}
	if r.NsPerOp != 830544851 || r.BytesPerOp != 61307376 || r.AllocsOp != 3540 {
		t.Errorf("metrics = %v/%v/%v", r.NsPerOp, r.BytesPerOp, r.AllocsOp)
	}
	if r.Extra["tweets"] != 658610 {
		t.Errorf("tweets/op = %v", r.Extra["tweets"])
	}
}

func TestParseBenchLineMinimal(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkHaversine \t36684615\t        62.47 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok || r.NsPerOp != 62.47 || r.Iterations != 36684615 {
		t.Fatalf("parse = %+v ok=%v", r, ok)
	}
}

func TestParseBenchLineCustomUnits(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkShardResident-2 \t 3\t 113703852 ns/op\t 232.8 B/record\t 44399 partials\t 1.5e+06 tweets/sec\t86413981 B/op\t 466713 allocs/op")
	if !ok || r.BytesPerOp != 86413981 {
		t.Fatalf("parse = %+v ok=%v", r, ok)
	}
	for unit, want := range map[string]float64{"B/record": 232.8, "partials": 44399, "tweets/sec": 1.5e6} {
		if r.Extra[unit] != want {
			t.Errorf("Extra[%q] = %v, want %v", unit, r.Extra[unit], want)
		}
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \tgeomob\t10.215s",
		"goos: linux",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkBroken notanumber 5 ns/op",
		"Benchmark 1", // no metrics
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q parsed as a result", line)
		}
	}
}

// TestMedianRuns: repeated runs collapse to the one with the median
// ns/op, whole (its allocs and custom metrics with it), benchmarks keep
// the order they first appeared in, and a single run passes through.
func TestMedianRuns(t *testing.T) {
	run := func(name string, ns, allocs float64) BenchResult {
		return BenchResult{Name: name, Iterations: 1, NsPerOp: ns, AllocsOp: allocs}
	}
	got := medianRuns([]BenchResult{
		run("BenchmarkB", 90, 9), run("BenchmarkA", 7, 1),
		run("BenchmarkB", 300, 30), run("BenchmarkB", 100, 10),
		run("BenchmarkB", 80, 8), run("BenchmarkB", 95, 5),
	})
	want := []BenchResult{run("BenchmarkB", 95, 5), run("BenchmarkA", 7, 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("medianRuns = %+v, want %+v", got, want)
	}
}
