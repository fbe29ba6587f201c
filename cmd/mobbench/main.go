// mobbench establishes the repository's performance trajectory: it runs
// the key benchmarks with -benchmem, each runsPerBenchmark times, and
// writes a machine-readable snapshot (BENCH_<date>.json) recording, per
// benchmark, the run with the median ns/op: name, ns/op, B/op, allocs/op
// and the custom metrics (tweets/op), so successive PRs can assert
// improvements against a committed baseline instead of folklore.
//
// Usage:
//
//	mobbench [-bench regex] [-benchtime 1x] [-dir .] [-out BENCH_<date>.json]
//	mobbench -compare old.json new.json [-tolerance 0.15]
//
// The -compare mode diffs two snapshots, prints per-benchmark ns/op and
// allocs/op deltas, and exits non-zero when any benchmark regressed by
// more than the tolerances (-tolerance for ns/op, -alloc-tolerance for
// allocs/op) — CI runs it against the committed baseline. It also
// asserts the batched-ingest contract on the new snapshot alone:
// BenchmarkIngestBatch must sustain at least -batch-speedup times the
// tweets/sec of BenchmarkIngest at no more than -batch-alloc-ratio of
// its allocs/op, so the columnar hot path cannot silently decay back to
// per-record costs.
//
// The default benchmark set covers the study pipeline's hot paths: the
// end-to-end single-worker study pass, the grid-resolved area assignment
// and its k-d tree reference, the multi-scale assignment, the geodesic
// kernel, the store scan, the live ingest path (tweets/sec through
// durable append + bucket-ring routing), the warm bucket-fold query, a
// shard's cold fill with its resident B/record, and the replicated
// cluster's ingest paths (bulk routing, the WAL ack floor,
// and one hourly request's acknowledgement with its fsyncs/op and
// deliveries/op).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runsPerBenchmark is how often every selected benchmark runs (go test
// -count). The snapshot keeps each benchmark's median run, so a single
// slow run on a small, shared box neither fails the gate nor skews a
// baseline.
const runsPerBenchmark = 5

// defaultBenchRegex selects the perf-trajectory benchmarks.
const defaultBenchRegex = "BenchmarkStudyRun/workers=1$|BenchmarkAreaAssign$|BenchmarkResolverBuild$|BenchmarkMultiScaleMap$|BenchmarkHaversine$|BenchmarkStoreScan$|BenchmarkIngest$|BenchmarkIngestBatch$|BenchmarkBackfill$|BenchmarkLiveQuery$|BenchmarkLiveEdgeRefresh$|BenchmarkLiveColdQuery$|BenchmarkShardResident$|BenchmarkClusterIngest$|BenchmarkClusterEdgeIngest$|BenchmarkWALAppend$|BenchmarkIngestReplicated$|BenchmarkObsOverhead$"

// BenchResult is one benchmark's parsed measurements. Metric keys are the
// benchmark units with "/op" trimmed and slashes made JSON-friendly:
// ns/op, B/op, allocs/op, tweets/op and any future custom metric.
type BenchResult struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
	// Extra holds custom benchmark metrics such as tweets/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the file format of BENCH_<date>.json.
type Snapshot struct {
	Date      string        `json:"date"`
	Commit    string        `json:"commit,omitempty"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPU       string        `json:"cpu,omitempty"`
	BenchTime string        `json:"benchtime"`
	Runs      int           `json:"runs,omitempty"`
	Results   []BenchResult `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mobbench: ")
	var (
		benchRe   = flag.String("bench", defaultBenchRegex, "benchmark selection regex passed to go test -bench")
		benchTime = flag.String("benchtime", "1x", "go test -benchtime value (1x keeps the heavy study pass affordable)")
		dir       = flag.String("dir", ".", "package directory to benchmark")
		out       = flag.String("out", "", "output path (default BENCH_<date>.json in -dir)")
		compare   = flag.Bool("compare", false, "compare two snapshots: mobbench -compare old.json new.json")
		tolerance = flag.Float64("tolerance", 0.15, "ns/op regression tolerance for -compare (0.15 = fail beyond +15%)")
		allocTol  = flag.Float64("alloc-tolerance", 0.25, "allocs/op regression tolerance for -compare (0 disables; benchmarks with zero baseline allocs are never gated)")
		speedup   = flag.Float64("batch-speedup", 3.0, "minimum tweets/sec ratio BenchmarkIngestBatch/BenchmarkIngest asserted on the new snapshot (0 disables)")
		allocRat  = flag.Float64("batch-alloc-ratio", 0.1, "maximum allocs/op ratio BenchmarkIngestBatch/BenchmarkIngest asserted on the new snapshot (0 disables)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two snapshot paths: old.json new.json")
		}
		failed, err := runCompare(flag.Arg(0), flag.Arg(1), compareOptions{
			tolerance:       *tolerance,
			allocTolerance:  *allocTol,
			batchSpeedup:    *speedup,
			batchAllocRatio: *allocRat,
		})
		if err != nil {
			log.Fatal(err)
		}
		if failed {
			log.Fatal("regressions beyond tolerance (or batch-ingest contract violations) detected")
		}
		log.Print("no regressions beyond tolerance")
		return
	}

	snap, raw, err := runBenchmarks(*dir, *benchRe, *benchTime)
	if err != nil {
		os.Stderr.Write(raw)
		log.Fatal(err)
	}
	if len(snap.Results) == 0 {
		os.Stderr.Write(raw)
		log.Fatalf("no benchmark results matched %q", *benchRe)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s/BENCH_%s.json", strings.TrimRight(*dir, "/"), snap.Date)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, r := range snap.Results {
		log.Printf("%-40s %14.1f ns/op %12.0f B/op %10.0f allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsOp)
	}
	log.Printf("wrote %s (%d benchmarks)", path, len(snap.Results))
}

// runBenchmarks executes go test -bench over the package and parses the
// output into a snapshot. The raw output is returned for diagnostics.
func runBenchmarks(dir, benchRe, benchTime string) (*Snapshot, []byte, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", benchRe, "-benchmem", "-benchtime", benchTime, "-count", strconv.Itoa(runsPerBenchmark), "-timeout", "30m", ".")
	cmd.Dir = dir
	raw, err := cmd.CombinedOutput()
	if err != nil {
		return nil, raw, fmt.Errorf("go test -bench: %w", err)
	}
	snap := &Snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Commit:    gitCommit(dir),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BenchTime: benchTime,
		Runs:      runsPerBenchmark,
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.CPU = strings.TrimSpace(cpu)
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			snap.Results = append(snap.Results, r)
		}
	}
	snap.Results = medianRuns(snap.Results)
	return snap, raw, nil
}

// medianRuns collapses the repeated runs of each benchmark, in the order
// the benchmarks first appear, to the run with the median ns/op (the
// upper median of an even count): each row stays one coherent run.
func medianRuns(rs []BenchResult) []BenchResult {
	runs := map[string][]BenchResult{}
	var names []string
	for _, r := range rs {
		if runs[r.Name] == nil {
			names = append(names, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]BenchResult, len(names))
	for i, name := range names {
		rs := runs[name]
		slices.SortStableFunc(rs, func(a, b BenchResult) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		out[i] = rs[len(rs)/2]
	}
	return out
}

// gitCommit best-effort resolves the current commit for provenance.
func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkStudyRun/workers=1  1  830544851 ns/op  658610 tweets/op  61307376 B/op  3540 allocs/op
//
// into a BenchResult. Lines that are not benchmark results report ok=false.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			// Custom metrics: per-op units drop the "/op"; anything else
			// (tweets/sec on the ingest path, B/record, partials) keeps its
			// full unit as the key.
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[strings.TrimSuffix(unit, "/op")] = v
		}
	}
	if !seen {
		return BenchResult{}, false
	}
	return r, true
}
