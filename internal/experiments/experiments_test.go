package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"geomob/internal/census"
	"geomob/internal/epidemic"
)

// sharedEnv builds one moderate environment for the whole test package.
var sharedEnv *Env

func getEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		env, err := NewEnv(context.Background(), 12000, 42, 43, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = env
	}
	return sharedEnv
}

func TestTableI(t *testing.T) {
	env := getEnv(t)
	tab, err := TableI(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 13 {
		t.Errorf("Table I has %d rows", len(tab.Rows))
	}
	// The measured column must carry real values.
	for _, row := range tab.Rows {
		if row[1] == "" {
			t.Errorf("row %q has empty measured value", row[0])
		}
	}
}

func TestFigure1(t *testing.T) {
	env := getEnv(t)
	grid, err := Figure1(env)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Total() == 0 {
		t.Fatal("no tweets binned")
	}
	// Fig. 1's density scale spans several decades.
	if d := grid.DensityDecades(); d < 2 {
		t.Errorf("density spans %.1f decades, want >= 2", d)
	}
}

func TestFigure2aPowerLaw(t *testing.T) {
	env := getEnv(t)
	bins, fit, err := Figure2a(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 5 {
		t.Errorf("only %d bins", len(bins))
	}
	// The generator plants alpha = 1.8.
	if math.Abs(fit.Alpha-env.Config.ActivityAlpha) > 0.3 {
		t.Errorf("fitted alpha %.2f, planted %.2f", fit.Alpha, env.Config.ActivityAlpha)
	}
	// Density must decrease overall (heavy tail): compare first vs last
	// non-empty bin.
	var first, last float64
	for _, b := range bins {
		if b.Count > 0 {
			if first == 0 {
				first = b.Density
			}
			last = b.Density
		}
	}
	if last >= first {
		t.Errorf("density did not decay: first %v last %v", first, last)
	}
}

func TestFigure2bSpansDecades(t *testing.T) {
	env := getEnv(t)
	bins, err := Figure2b(env)
	if err != nil {
		t.Fatal(err)
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
	if hi/lo < 1e4 {
		t.Errorf("waiting times span %.1f decades, want >= 4", math.Log10(hi/lo))
	}
}

func TestFigure3a(t *testing.T) {
	env := getEnv(t)
	tab, err := Figure3a(env)
	if err != nil {
		t.Fatal(err)
	}
	// 3 scales + pooled + paper reference.
	if len(tab.Rows) != 5 {
		t.Errorf("Figure 3a table has %d rows", len(tab.Rows))
	}
	// Pooled r (4th row, 5th column) must be strongly positive.
	pooled := tab.Rows[3][4]
	r, err := strconv.ParseFloat(pooled, 64)
	if err != nil {
		t.Fatalf("pooled r cell %q", pooled)
	}
	if r < 0.6 {
		t.Errorf("pooled r = %v", r)
	}
}

func TestFigure3bDegradation(t *testing.T) {
	env := getEnv(t)
	tab, err := Figure3b(env)
	if err != nil {
		t.Fatal(err)
	}
	r2km, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	r05km, err := strconv.ParseFloat(tab.Rows[1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if r05km >= r2km {
		t.Errorf("0.5 km r=%.3f should degrade below 2 km r=%.3f", r05km, r2km)
	}
}

func TestFigure4AndTableII(t *testing.T) {
	env := getEnv(t)
	fits, err := Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("Figure 4 has %d scales", len(fits))
	}
	for scale, fs := range fits {
		if len(fs) != 3 {
			t.Errorf("%s: %d models", scale, len(fs))
		}
	}
	tab, err := TableII(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Errorf("Table II has %d rows, want 9", len(tab.Rows))
	}
	if err := TableIIShapeCheck(env); err != nil {
		t.Errorf("Table II qualitative shape violated: %v", err)
	}
}

func TestAblationRadius(t *testing.T) {
	env := getEnv(t)
	tab, err := AblationRadius(env, []float64{500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Larger radius captures at least as many users.
	u500, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	u2000, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
	if u2000 < u500 {
		t.Errorf("2 km captured fewer users (%v) than 0.5 km (%v)", u2000, u500)
	}
}

func TestAblationSampleSize(t *testing.T) {
	env := getEnv(t)
	tab, err := AblationSampleSize(env, []float64{0.3, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		r, err := strconv.ParseFloat(row[1], 64)
		if err != nil || r < 0.3 {
			t.Errorf("fraction %s: r=%s", row[0], row[1])
		}
	}
	if _, err := AblationSampleSize(env, []float64{1.5}); err == nil {
		t.Error("fraction > 1 should fail")
	}
}

func TestAblationGammaRecovery(t *testing.T) {
	env := getEnv(t)
	tab, err := AblationGamma(env, []float64{1.5, 2.5}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Direct fits must recover the planted exponents almost exactly (only
	// flow rounding perturbs them).
	for i, planted := range []float64{1.5, 2.5} {
		direct, err := strconv.ParseFloat(tab.Rows[i][1], 64)
		if err != nil {
			t.Fatalf("unparseable direct gamma %q", tab.Rows[i][1])
		}
		if math.Abs(direct-planted) > 0.1 {
			t.Errorf("direct fit for planted %.1f recovered %.2f", planted, direct)
		}
	}
	// Pipeline fits are flattened by the destination-choice normalisation,
	// but must still rank with the planted exponent.
	g1, err1 := strconv.ParseFloat(tab.Rows[0][2], 64)
	g2, err2 := strconv.ParseFloat(tab.Rows[1][2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable pipeline gammas: %v %v", tab.Rows[0][2], tab.Rows[1][2])
	}
	if g2 <= g1 {
		t.Errorf("planted 2.5 should recover larger pipeline gamma than 1.5: %v vs %v", g2, g1)
	}
}

func TestEpidemicExperiment(t *testing.T) {
	env := getEnv(t)
	tab, res, err := Epidemic(env, epidemic.DefaultParams(), "Sydney")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 { // 20 cities + summary row
		t.Errorf("%d rows", len(tab.Rows))
	}
	if res.PeakI <= 0 {
		t.Error("epidemic never took off")
	}
	// Sydney must be the first city hit.
	if tab.Rows[0][0] != "Sydney" {
		t.Errorf("first-hit city is %q", tab.Rows[0][0])
	}
	if _, _, err := Epidemic(env, epidemic.DefaultParams(), "Atlantis"); err == nil {
		t.Error("unknown seed city should fail")
	}
}

func TestArtefactWriting(t *testing.T) {
	dir := t.TempDir()
	env, err := NewEnv(context.Background(), 2000, 7, 9, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TableI(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure1(env); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Figure2a(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure3a(env); err != nil {
		t.Fatal(err)
	}
	if _, err := TableII(env); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"table1.txt", "table1.csv", "figure1.png", "figure1.txt",
		"figure2a.csv", "figure3a.csv", "figure3a.txt", "table2.txt", "table2.csv",
	} {
		info, err := os.Stat(filepath.Join(dir, want))
		if err != nil {
			t.Errorf("artefact %s missing: %v", want, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artefact %s is empty", want)
		}
	}
}

func TestScaleSlug(t *testing.T) {
	if scaleSlug(census.ScaleNational) != "national" ||
		scaleSlug(census.ScaleState) != "state" ||
		scaleSlug(census.ScaleMetropolitan) != "metropolitan" {
		t.Error("bad slugs")
	}
	if !strings.Contains(scaleSlug(census.Scale(9)), "unknown") {
		t.Error("unknown scale slug")
	}
}
