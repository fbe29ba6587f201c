// mobrepro regenerates every table and figure of the paper from a fresh
// synthetic corpus, printing the results and writing all artefacts (text
// tables, CSV series, PNG density map) into an output directory.
//
// Usage:
//
//	mobrepro -users 50000 -out out/
//	mobrepro -users 473956 -out out-full/   # paper-scale corpus
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geomob/internal/epidemic"
	"geomob/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mobrepro: ")

	var (
		users   = flag.Int("users", 50000, "number of synthetic users (paper: 473956)")
		seed1   = flag.Uint64("seed", 42, "first PCG seed")
		seed2   = flag.Uint64("seed2", 43, "second PCG seed")
		outDir  = flag.String("out", "out", "artefact output directory")
		quick   = flag.Bool("quick", false, "skip the slower ablations")
		workers = flag.Int("workers", 0, "study pipeline workers (0 = one per CPU)")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the study pass mid-scan instead of letting
	// a paper-scale corpus run to completion unattended.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	started := time.Now()
	fmt.Printf("mobrepro: generating %d-user corpus (seed %d/%d) and running the study...\n", *users, *seed1, *seed2)
	env, err := experiments.NewEnv(ctx, *users, *seed1, *seed2, *outDir, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mobrepro: corpus of %d tweets ready in %v\n\n", len(env.Tweets), time.Since(started).Round(time.Millisecond))

	section := func(name string, fn func() error) {
		fmt.Printf("--- %s\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	section("Table I (dataset statistics)", func() error {
		tab, err := experiments.TableI(env)
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	section("Figure 1 (tweet density map)", func() error {
		grid, err := experiments.Figure1(env)
		if err != nil {
			return err
		}
		fmt.Printf("density grid: %d tweets binned, non-zero cells span %.1f decades\n",
			int(grid.Total()), grid.DensityDecades())
		fmt.Printf("artefacts: %s/figure1.png, %s/figure1.txt\n", env.OutDir, env.OutDir)
		return nil
	})

	section("Figure 2a (tweets per user)", func() error {
		bins, fit, err := experiments.Figure2a(env)
		if err != nil {
			return err
		}
		fmt.Printf("log-binned PDF over %d bins; MLE power-law tail alpha = %.2f (KS %.3f, n=%d)\n",
			len(bins), fit.Alpha, fit.KS, fit.N)
		return nil
	})

	section("Figure 2b (waiting times)", func() error {
		bins, err := experiments.Figure2b(env)
		if err != nil {
			return err
		}
		var lo, hi float64
		for _, b := range bins {
			if b.Count > 0 {
				if lo == 0 {
					lo = b.Center
				}
				hi = b.Center
			}
		}
		fmt.Printf("waiting times span [%.0fs, %.0fs] — %.1f decades\n", lo, hi, dec(hi/lo))
		return nil
	})

	section("Figure 3a (population vs census, 3 scales)", func() error {
		tab, err := experiments.Figure3a(env)
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	section("Figure 3b (metro radius sensitivity)", func() error {
		tab, err := experiments.Figure3b(env)
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	section("Figure 4 + Table II (model comparison)", func() error {
		if _, err := experiments.Figure4(env); err != nil {
			return err
		}
		tab, err := experiments.TableII(env)
		if err != nil {
			return err
		}
		if err := tab.WriteText(os.Stdout); err != nil {
			return err
		}
		if err := experiments.TableIIShapeCheck(env); err != nil {
			return fmt.Errorf("qualitative shape violated: %w", err)
		}
		fmt.Println("qualitative shape check passed: gravity dominates radiation, Gravity 2Param best overall")
		return nil
	})

	section("Extension — displacement distribution", func() error {
		bins, err := experiments.FigureDisplacement(env)
		if err != nil {
			return err
		}
		var local, long int
		for _, b := range bins {
			if b.Center < 10 {
				local += b.Count
			}
			if b.Center > 500 {
				long += b.Count
			}
		}
		fmt.Printf("displacements: %d local (<10 km), %d inter-city (>500 km) over %d bins\n",
			local, long, len(bins))
		return nil
	})

	section("Extension — Table II with CPC and intervening opportunities", func() error {
		tab, err := experiments.TableIIExtended(env)
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	section("Extension — bootstrap CI on the pooled correlation", func() error {
		ci, err := experiments.PooledCorrelationCI(env, 0.95, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("pooled log-Pearson r = %.3f, 95%% bootstrap CI [%.3f, %.3f]\n", ci.Point, ci.Lo, ci.Hi)
		return nil
	})

	section("Extension E1 (epidemic over Twitter mobility)", func() error {
		tab, _, err := experiments.Epidemic(env, epidemic.DefaultParams(), "Sydney")
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	section("Extension E1b (stochastic outbreak ensemble)", func() error {
		tab, err := experiments.EpidemicStochastic(env, 50, 3)
		if err != nil {
			return err
		}
		return tab.WriteText(os.Stdout)
	})

	if !*quick {
		section("Ablation A1 (metro search-radius sweep)", func() error {
			tab, err := experiments.AblationRadius(env, nil)
			if err != nil {
				return err
			}
			return tab.WriteText(os.Stdout)
		})
		section("Ablation A2 (sample-size sensitivity)", func() error {
			tab, err := experiments.AblationSampleSize(env, nil)
			if err != nil {
				return err
			}
			return tab.WriteText(os.Stdout)
		})
		section("Ablation A3 (gravity exponent recovery)", func() error {
			tab, err := experiments.AblationGamma(env, nil, 0)
			if err != nil {
				return err
			}
			return tab.WriteText(os.Stdout)
		})
	}

	fmt.Printf("mobrepro: done in %v; artefacts in %s/\n", time.Since(started).Round(time.Millisecond), *outDir)
}

// dec returns log10 of a ratio, guarding non-positive input.
func dec(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Log10(r)
}
