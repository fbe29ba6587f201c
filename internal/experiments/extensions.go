package experiments

import (
	"fmt"
	"io"

	"geomob/internal/census"
	"geomob/internal/epidemic"
	"geomob/internal/mobility"
	"geomob/internal/models"
	"geomob/internal/report"
	"geomob/internal/stats"
)

// FigureDisplacement is an extension figure in the style of Hawelka et al.
// (the paper's ref. [9]): the distribution of displacements between
// consecutive tweets, log-binned. Its shape diagnoses the movement model —
// a sharp local mode (intra-city jitter) with a long inter-city tail.
func FigureDisplacement(env *Env) ([]stats.Bin, error) {
	disp := mobility.DisplacementSeries(env.Tweets)
	bins, _, err := stats.LogHistogram(disp, 4)
	if err != nil {
		return nil, fmt.Errorf("figure displacement: %w", err)
	}
	if err := env.writeArtefact("figure_displacement.csv", func(w io.Writer) error {
		return report.WriteSeriesCSV(w, binsToSeries("P(dr_km)", bins))
	}); err != nil {
		return nil, err
	}
	return bins, nil
}

// TableIIExtended scores the paper's three models plus the intervening-
// opportunities baseline on every scale, reporting Pearson, HitRate@50%
// and the Common Part of Commuters.
func TableIIExtended(env *Env) (*report.Table, error) {
	t := report.NewTable(
		"Table II (extended) — four models × three scales",
		"Scale", "Model", "Pearson", "HitRate@50%", "CPC", "RMSE(log)",
	)
	for _, scale := range census.Scales() {
		mr := env.Result.Mobility[scale]
		if mr == nil {
			return nil, fmt.Errorf("table II extended: no mobility result for %s", scale)
		}
		for _, m := range models.AllExtended() {
			if err := m.Fit(mr.OD); err != nil {
				return nil, fmt.Errorf("table II extended: fit %s at %s: %w", m.Name(), scale, err)
			}
			met, err := models.Evaluate(mr.OD, m)
			if err != nil {
				return nil, fmt.Errorf("table II extended: evaluate %s at %s: %w", m.Name(), scale, err)
			}
			t.AddRow(scale.String(), m.Name(),
				report.F(met.PearsonLog), report.F(met.HitRate50),
				report.F(met.CPC), report.F(met.RMSELog))
		}
	}
	if err := env.writeArtefact("table2_extended.txt", t.WriteText); err != nil {
		return nil, err
	}
	if err := env.writeArtefact("table2_extended.csv", t.WriteCSV); err != nil {
		return nil, err
	}
	return t, nil
}

// EpidemicStochastic runs the stochastic ensemble extension (E1b): many
// discrete outbreak realisations from a small seed, reporting the
// extinction share and the spread of peak timing — the uncertainty band a
// responsive forecasting system must carry.
func EpidemicStochastic(env *Env, runs, seedCases int) (*report.Table, error) {
	if runs <= 0 {
		runs = 50
	}
	if seedCases <= 0 {
		seedCases = 3
	}
	mr := env.Result.Mobility[census.ScaleNational]
	if mr == nil {
		return nil, fmt.Errorf("epidemic stochastic: no national mobility result")
	}
	seed := -1
	for i, a := range mr.Flows.Areas {
		if a.Name == "Sydney" {
			seed = i
		}
	}
	if seed < 0 {
		return nil, fmt.Errorf("epidemic stochastic: no Sydney")
	}
	p := epidemic.DefaultParams()
	res, err := epidemic.SimulateStochastic(mr.Flows.Areas, mr.Flows.Flows, seed, seedCases, p, runs, env.Config.Seed1^0xE91, env.Config.Seed2^0xE92)
	if err != nil {
		return nil, fmt.Errorf("epidemic stochastic: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("Extension E1b — stochastic ensemble (%d runs, %d seed cases, R0=%.1f)", runs, seedCases, p.R0()),
		"Statistic", "Value",
	)
	t.AddRow("Extinct runs", fmt.Sprintf("%d (%.0f%%)", res.ExtinctRuns, res.ExtinctShare*100))
	t.AddRow("Mean attack rate", fmt.Sprintf("%.1f%%", res.MeanAttack))
	t.AddRow("Mean peak day (established runs)", fmt.Sprintf("%.0f", res.MeanPeakDay))
	if len(res.PeakDays) > 1 {
		sd, err := stats.StdDev(res.PeakDays)
		if err != nil {
			return nil, err
		}
		t.AddRow("Peak-day std dev", fmt.Sprintf("%.1f days", sd))
	}
	if err := env.writeArtefact("epidemic_stochastic.txt", t.WriteText); err != nil {
		return nil, err
	}
	return t, nil
}

// PooledCorrelationCI supplements Fig. 3a with a bootstrap confidence
// interval on the pooled correlation — quantifying the uncertainty the
// paper's single point estimate (r = 0.816) leaves implicit.
func PooledCorrelationCI(env *Env, level float64, resamples int) (*stats.BootstrapCI, error) {
	if level == 0 {
		level = 0.95
	}
	if resamples == 0 {
		resamples = 2000
	}
	var x, y []float64
	for _, scale := range census.Scales() {
		est := env.Result.Population[scale]
		lx, ly, _, err := stats.Log10Positive(est.Rescaled, est.Census)
		if err != nil {
			return nil, err
		}
		x = append(x, lx...)
		y = append(y, ly...)
	}
	ci, err := stats.BootstrapPearsonCI(x, y, level, resamples, env.Config.Seed1^0xB007, env.Config.Seed2^0x57A9)
	if err != nil {
		return nil, fmt.Errorf("pooled correlation CI: %w", err)
	}
	if err := env.writeArtefact("figure3a_ci.txt", func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "pooled log-Pearson r = %.3f, %d%% bootstrap CI [%.3f, %.3f] (%d resamples)\n",
			ci.Point, int(level*100), ci.Lo, ci.Hi, ci.Resample)
		return err
	}); err != nil {
		return nil, err
	}
	return ci, nil
}
