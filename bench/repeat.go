package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// checkRepeat runs two sets of runs of the same build, each over the
// seeds seed..seed+runs-1, and prints for every workload and end-to-end
// metric both medians, the quartiles and the spread (interquartile
// distance over the median, as the benchmark contract computes it)
// against the metric's own bound. A metric repeats when both spreads
// stay within the bound (setup_s is exempt from that half, as in the
// contract) and the second median is not worse than the first by more
// than the bound.
func checkRepeat(e *env, workloads []spec, seed uint64, seconds float64, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-check-repeat needs at least 2 runs per set, got %d", runs)
	}
	failed := 0
	for _, sp := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := runOne(io.Discard, e, sp, seed+uint64(i), seconds, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", sp.name, seed+uint64(i), res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		// The raw values, for whoever wants more than quartiles.
		if raw, err := json.Marshal(sets); err == nil {
			_ = os.WriteFile(filepath.Join(e.buildDir, "repeat-"+sp.name+".json"), raw, 0o644) // a convenience copy; the table below is the report
		}
		fmt.Printf("%s: two sets of %d runs, seeds %d..%d, %.0f s loops\n", sp.name, runs, seed, seed+uint64(runs)-1, seconds)
		fmt.Printf("  %-26s %-8s %12s %12s %12s %7s | %12s %7s | %7s %6s\n",
			"metric", "unit", "q1", "median", "q3", "spread", "median 2", "spread", "worse", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			q1, m1, q3 := quartiles(a)
			_, m2, _ := quartiles(b)
			worse := (m2 - m1) / m1
			if d.better == "higher" {
				worse = -worse
			}
			ok := worse <= d.bound && (d.name == "setup_s" || (spread(a) <= d.bound && spread(b) <= d.bound))
			verdict := "ok"
			if !ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("  %-26s %-8s %12.6g %12.6g %12.6g %6.1f%% | %12.6g %6.1f%% | %+6.1f%% %5.0f%% %s\n",
				d.name, d.unit, q1, m1, q3, 100*spread(a), m2, 100*spread(b), 100*worse, 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs did not repeat within their bounds", failed)
	}
	return nil
}
