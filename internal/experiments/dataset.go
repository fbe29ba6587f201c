package experiments

import (
	"fmt"
	"io"

	"geomob/internal/geo"
	"geomob/internal/mobility"
	"geomob/internal/report"
	"geomob/internal/stats"
)

// TableI regenerates the paper's Table I (dataset statistics) and, when an
// output directory is configured, writes table1.txt and table1.csv.
func TableI(env *Env) (*report.Table, error) {
	st := env.Result.Stats
	t := report.NewTable(
		"Table I — Statistics of the dataset",
		"Statistic", "Measured", "Paper",
	)
	t.AddRow("Range of longitude",
		fmt.Sprintf("[%.6f, %.6f]", st.BBox.MinLon, st.BBox.MaxLon),
		"[112.921112, 159.278717]")
	t.AddRow("Range of latitude",
		fmt.Sprintf("[%.6f, %.6f]", st.BBox.MinLat, st.BBox.MaxLat),
		"[-54.640301, -9.228820]")
	t.AddRow("Collection period",
		fmt.Sprintf("%s – %s", st.First.Format("Jan.2006"), st.Last.Format("Jan.2006")),
		"Sept.2013-Apr.2014")
	t.AddRow("No. Tweets", report.FInt(st.Tweets), "6,304,176")
	t.AddRow("No. unique users", report.FInt(st.Users), "473,956")
	t.AddRow("Avg. Tweets/user", fmt.Sprintf("%.1f", st.AvgTweetsPerUser), "13.3")
	t.AddRow("Avg. waiting time", fmt.Sprintf("%.1fhr", st.AvgWaitingHours), "35.5hr")
	t.AddRow("Avg. no. locations/user", fmt.Sprintf("%.2f", st.AvgLocations), "4.76")
	for _, k := range []int{50, 100, 500, 1000} {
		t.AddRow(fmt.Sprintf("Users with > %d Tweets", k),
			report.FInt(st.HeavyUsers[k]), heavyPaper(k))
	}
	t.AddRow("Mean radius of gyration",
		fmt.Sprintf("%.1f km", st.MeanGyrationKM),
		"(not reported)")
	if err := env.writeArtefact("table1.txt", t.WriteText); err != nil {
		return nil, err
	}
	if err := env.writeArtefact("table1.csv", t.WriteCSV); err != nil {
		return nil, err
	}
	return t, nil
}

// heavyPaper returns the paper's §II heavy-user counts.
func heavyPaper(k int) string {
	switch k {
	case 50:
		return "23,462"
	case 100:
		return "10,031"
	case 500:
		return "766"
	case 1000:
		return "180"
	default:
		return ""
	}
}

// Figure1 regenerates the tweet-density map of Australia (Fig. 1) on a
// 360×280 grid, writing figure1.png and figure1.txt when configured.
func Figure1(env *Env) (*DensityGrid, error) {
	grid, err := newDensityGrid(geo.AustraliaBBox, 360, 280)
	if err != nil {
		return nil, err
	}
	for _, tw := range env.Tweets {
		grid.add(tw.Point())
	}
	if err := env.writeArtefact("figure1.png", grid.writePNG); err != nil {
		return nil, err
	}
	if err := env.writeArtefact("figure1.txt", func(w io.Writer) error {
		// A coarser companion grid keeps the ASCII render terminal-sized.
		small, err := newDensityGrid(geo.AustraliaBBox, 110, 42)
		if err != nil {
			return err
		}
		for _, tw := range env.Tweets {
			small.add(tw.Point())
		}
		return small.writeASCII(w)
	}); err != nil {
		return nil, err
	}
	return grid, nil
}

// Figure2a regenerates the distribution of tweets per user (Fig. 2a):
// log-binned density plus the MLE power-law exponent of the tail.
func Figure2a(env *Env) ([]stats.Bin, *stats.PowerLawFit, error) {
	counts := env.Result.Stats.TweetsPerUser
	bins, _, err := stats.LogHistogram(counts, 4)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 2a: %w", err)
	}
	fit, err := stats.FitPowerLaw(counts, 2, true)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 2a power-law fit: %w", err)
	}
	if err := env.writeArtefact("figure2a.csv", func(w io.Writer) error {
		s := binsToSeries("P(tweets_per_user)", bins)
		return report.WriteSeriesCSV(w, s)
	}); err != nil {
		return nil, nil, err
	}
	return bins, fit, nil
}

// Figure2b regenerates the waiting-time distribution (Fig. 2b) from the
// inter-tweet gaps in seconds, derived from the corpus: a Result keeps
// only their mean.
func Figure2b(env *Env) ([]stats.Bin, error) {
	gaps := mobility.WaitingSeries(env.Tweets)
	bins, _, err := stats.LogHistogram(gaps, 4)
	if err != nil {
		return nil, fmt.Errorf("figure 2b: %w", err)
	}
	if err := env.writeArtefact("figure2b.csv", func(w io.Writer) error {
		s := binsToSeries("P(DT)", bins)
		return report.WriteSeriesCSV(w, s)
	}); err != nil {
		return nil, err
	}
	return bins, nil
}

// binsToSeries converts non-empty histogram bins into a plot series.
func binsToSeries(name string, bins []stats.Bin) report.Series {
	s := report.Series{Name: name}
	for _, b := range bins {
		if b.Count > 0 {
			s.X = append(s.X, b.Center)
			s.Y = append(s.Y, b.Density)
		}
	}
	return s
}
