// Command bench is the repository's load benchmark: it builds
// ./cmd/mobserve from the checkout it runs in, boots the real binary on
// free ports over temporary stores, drives it over HTTP with inputs
// generated in-process from a seed, checks the answers against the
// library's own Study, and prints every metric by name with its unit.
// See README.md beside this file and BENCHMARK.json at the repository
// root.
//
//	bash bench/run.sh -seed 42                  all four workloads
//	bash bench/run.sh -workload moving_edge -seed 7 -seconds 10 -trace 1
//	bash bench/run.sh -check-repeat             two sets of runs, spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and directions (a unit test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Bounds are three times the widest run-to-run spread measured on the
// reference box (README.md, "How the bounds were fixed"), not a wish.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"bulk_binary_tweets_per_s", "tweets/s", "higher", 0.25},
	{"disk_bytes_per_tweet", "B/tweet", "lower", 0.05},
	{"first_query_s", "s", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"fold_p50_ms", "ms", "lower", 0.25},
	{"refresh_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
}

// ungated are user-visible timings that did not repeat within a tenth
// from run to run on the reference box (every ingest ack is a handful of
// fsyncs, whose latency there is bimodal between runs, and the probes'
// p95s rest on a hundred samples). They are printed by every run and
// reported, under mobserve.*, in the per-layer block of a traced run.
var ungated = []metricDef{
	{name: "fold_p95_ms", unit: "ms", better: "lower"},
	{name: "ingest_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "ingest_ack_p95_ms", unit: "ms", better: "lower"},
	{name: "refresh_p95_ms", unit: "ms", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reading is one metric of one run and how many samples stand behind
// it (0 for a count or a single measurement).
type reading struct {
	value float64
	n     int
}

// endToEndValues reduces a run's samples to the end-to-end metrics.
func (r *run) endToEndValues() map[string]reading {
	med := func(s samples, scale float64) reading { return reading{median(s) * scale, len(s)} }
	p95 := func(s samples) reading { return reading{percentile(s, 95) * 1000, len(s)} }
	t := r.measured()
	return map[string]reading{
		"setup_s":                  med(r.setupS, 1),
		"bulk_binary_tweets_per_s": med(r.loadRate, 1),
		"disk_bytes_per_tweet":     {r.bytesPerTweet, 0},
		"first_query_s":            med(r.firstS, 1),
		"query_per_s":              {float64(t.gets) / t.getWall, t.gets},
		"hit_p50_ms":               med(t.hit, 1000),
		"fold_p50_ms":              med(t.fold, 1000),
		"fold_p95_ms":              p95(t.fold),
		"ingest_ack_p50_ms":        med(t.ack, 1000),
		"ingest_ack_p95_ms":        p95(t.ack),
		"refresh_p50_ms":           med(t.refresh, 1000),
		"refresh_p95_ms":           p95(t.refresh),
		"recover_s":                med(r.recoverS, 1),
		"rss_mb":                   {r.rssMB, 0},
	}
}

// report prints the human-readable table of a finished run.
func (r *run) report(w io.Writer, values map[string]reading, defs []metricDef) {
	inputs, err := scheduleHash(r.c, r.historyHours, r.seed, 500)
	if err != nil {
		inputs = err.Error()
	}
	fmt.Fprintf(w, "workload %s seed %d inputs %s: %s\n", r.sp.name, r.seed, inputs, r.e.machine())
	fmt.Fprintf(w, "  loop: %d bulk rounds, %d edge steps, %d GETs; probes: %d edge steps, %d GETs; %d stale re-asks; %d attempted, %d failed\n",
		r.loopRounds, len(r.loopS.refresh), r.loopS.gets, len(r.probeS.refresh), r.probeS.gets,
		r.stale, r.attempted.Load(), r.failed.Load())
	for _, d := range defs {
		v := values[d.name]
		line := fmt.Sprintf("  %-32s %16.6g %-8s", d.name, v.value, d.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		fmt.Fprintln(w, line)
	}
	for _, d := range ungated {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d (not gated)\n", d.name, v.value, d.unit, v.n)
		}
	}
	// The tail each series can support: the highest percentile with at
	// least ten samples beyond it. Printed, never gated.
	t := r.measured()
	for _, series := range []struct {
		name string
		s    samples
	}{{"hit", t.hit}, {"fold", t.fold}, {"ingest_ack", t.ack}, {"refresh", t.refresh}} {
		if p, ok := tailPercentile(len(series.s)); ok && p > 95 {
			fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d (tail, not gated)\n",
				fmt.Sprintf("%s_p%v_ms", series.name, p), percentile(series.s, p)*1000, "ms", len(series.s))
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// runOne executes one workload and prints its table and result line.
func runOne(w io.Writer, e *env, sp spec, seed uint64, seconds float64, trace bool) (result, error) {
	r := &run{e: e, sp: sp, seed: seed, traced: trace}
	if err := r.execute(seconds); err != nil {
		return result{}, fmt.Errorf("%s: %w", sp.name, err)
	}
	values, defs := r.endToEndValues(), endToEnd
	if trace {
		var err error
		if values, err = r.perLayerValues(); err != nil {
			return result{}, fmt.Errorf("%s: traced run: %w", sp.name, err)
		}
		defs = perLayer
	}
	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	r.report(w, values, defs)
	for _, d := range defs {
		v := values[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s has no samples", sp.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed     = flag.Uint64("seed", 42, "seed of every generated input: corpus seeds are seed and seed+1, schedules shuffle from seed")
		seconds  = flag.Float64("seconds", 8, "how long the workload's measured loop runs")
		trace    = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing .bench_build/trace-<workload>.json")
		repeat   = flag.Bool("check-repeat", false, "run two sets of -runs runs per workload and print each end-to-end metric's medians, quartiles and spread against its bound")
		runs     = flag.Int("runs", 10, "runs per set with -check-repeat, on seeds seed, seed+1, ...")
	)
	flag.Parse()
	os.Exit(realMain(*workload, *seed, *seconds, *trace != 0, *repeat, *runs))
}

func realMain(workload string, seed uint64, seconds float64, trace, repeat bool, runs int) int {
	// Any exit path kills and reaps the servers first; a signal does too.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	run := specs
	if workload != "" {
		sp, ok := specByName(workload)
		if !ok {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.name
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", workload, names)
			return 2
		}
		run = []spec{sp}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if repeat {
		if err := checkRepeat(e, run, seed, seconds, runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	for _, sp := range run {
		// A run that printed its result line exits 0 even when the line
		// says correct:false; the line is the report.
		if _, err := runOne(os.Stdout, e, sp, seed, seconds, trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}
