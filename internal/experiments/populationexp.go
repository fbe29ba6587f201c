package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"geomob/internal/census"
	"geomob/internal/core"
	"geomob/internal/report"
	"geomob/internal/tweet"
)

// Figure3a regenerates Fig. 3a: rescaled Twitter population vs census
// population at the three scales with the paper's default radii, plus the
// pooled Pearson test (paper: r = 0.816, p = 2.06e-15 over 60 samples).
func Figure3a(env *Env) (*report.Table, error) {
	res := env.Result
	t := report.NewTable(
		"Figure 3a — Twitter population vs census (ε = 50/25/2 km)",
		"Scale", "Radius (km)", "C", "Median users/area", "Pearson r (log)", "p (log)",
	)
	var series []report.Series
	for _, scale := range census.Scales() {
		est := res.Population[scale]
		ct, err := est.Correlation()
		if err != nil {
			return nil, fmt.Errorf("figure 3a %s: %w", scale, err)
		}
		t.AddRow(scale.String(),
			fmt.Sprintf("%.1f", est.Radius/1000),
			fmt.Sprintf("%.2f", est.C),
			fmt.Sprintf("%.0f", est.MedianUsers),
			report.F(ct.R),
			report.FScientific(ct.P),
		)
		series = append(series, report.Series{
			Name: scale.String(),
			X:    est.Rescaled,
			Y:    est.Census,
		})
	}
	t.AddRow("Pooled (60 samples)", "", "", "",
		report.F(res.Pooled.TestLog.R), report.FScientific(res.Pooled.TestLog.P))
	t.AddRow("Paper pooled", "", "", "", "0.816", "2.06e-15")

	if err := env.writeArtefact("figure3a.csv", func(w io.Writer) error {
		return report.WriteSeriesCSV(w, series...)
	}); err != nil {
		return nil, err
	}
	if err := env.writeArtefact("figure3a.txt", t.WriteText); err != nil {
		return nil, err
	}
	return t, nil
}

// Figure3b regenerates Fig. 3b: the metropolitan estimate degrades when
// the search radius shrinks from 2 km to 0.5 km.
func Figure3b(env *Env) (*report.Table, error) {
	res := env.Result
	full := res.Population[census.ScaleMetropolitan]
	half := res.PopulationMetro500m
	fullCT, err := full.Correlation()
	if err != nil {
		return nil, fmt.Errorf("figure 3b: %w", err)
	}
	halfCT, err := half.Correlation()
	if err != nil {
		return nil, fmt.Errorf("figure 3b: %w", err)
	}
	t := report.NewTable(
		"Figure 3b — Metropolitan radius sensitivity",
		"Radius (km)", "Pearson r (log)", "p",
	)
	t.AddRow("2.0", report.F(fullCT.R), report.FScientific(fullCT.P))
	t.AddRow("0.5", report.F(halfCT.R), report.FScientific(halfCT.P))
	if err := env.writeArtefact("figure3b.csv", func(w io.Writer) error {
		return report.WriteSeriesCSV(w,
			report.Series{Name: "eps2km", X: full.Rescaled, Y: full.Census},
			report.Series{Name: "eps0.5km", X: half.Rescaled, Y: half.Census},
		)
	}); err != nil {
		return nil, err
	}
	if err := env.writeArtefact("figure3b.txt", t.WriteText); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationRadius sweeps the metropolitan search radius (DESIGN.md A1) and
// reports the correlation at each ε, extending the paper's two-point
// comparison into a full curve.
func AblationRadius(env *Env, radiiMeters []float64) (*report.Table, error) {
	if len(radiiMeters) == 0 {
		radiiMeters = []float64{250, 500, 1000, 2000, 4000}
	}
	t := report.NewTable(
		"Ablation A1 — Metropolitan search-radius sweep",
		"Radius (km)", "Pearson r (log)", "Total users counted",
	)
	for _, radius := range radiiMeters {
		est, err := env.Study.PopulationAtRadius(census.ScaleMetropolitan, radius)
		if err != nil {
			return nil, fmt.Errorf("ablation radius %.0f: %w", radius, err)
		}
		ct, err := est.Correlation()
		if err != nil {
			return nil, fmt.Errorf("ablation radius %.0f: %w", radius, err)
		}
		var total float64
		for _, u := range est.TwitterUsers {
			total += u
		}
		t.AddRow(fmt.Sprintf("%.2f", radius/1000), report.F(ct.R), fmt.Sprintf("%.0f", total))
	}
	if err := env.writeArtefact("ablation_radius.txt", t.WriteText); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationSampleSize subsamples users at the given fractions (DESIGN.md
// A2) and reports the pooled correlation, probing the paper's §III
// discussion of sample-size effects.
func AblationSampleSize(env *Env, fractions []float64) (*report.Table, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.1, 0.25, 0.5, 1.0}
	}
	t := report.NewTable(
		"Ablation A2 — User sample-size sensitivity",
		"Fraction of users", "Pooled Pearson r (log)", "p",
	)
	for _, frac := range fractions {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("ablation sample: fraction %v outside (0,1]", frac)
		}
		sub := subsampleUsers(env.Tweets, frac, 97)
		res, err := core.NewStudyWithOptions(core.SliceSource(sub), env.Opts).Run()
		if err != nil {
			return nil, fmt.Errorf("ablation sample %.2f: %w", frac, err)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			report.F(res.Pooled.TestLog.R),
			report.FScientific(res.Pooled.TestLog.P))
	}
	if err := env.writeArtefact("ablation_sample.txt", t.WriteText); err != nil {
		return nil, err
	}
	return t, nil
}

// subsampleUsers keeps each user with probability frac (deterministic in
// the seed), preserving stream order.
func subsampleUsers(tweets []tweet.Tweet, frac float64, seed uint64) []tweet.Tweet {
	rng := rand.New(rand.NewPCG(seed, seed*2+1))
	keep := map[int64]bool{}
	decided := map[int64]bool{}
	var out []tweet.Tweet
	for _, tw := range tweets {
		if !decided[tw.UserID] {
			decided[tw.UserID] = true
			keep[tw.UserID] = rng.Float64() < frac
		}
		if keep[tw.UserID] {
			out = append(out, tw)
		}
	}
	return out
}
