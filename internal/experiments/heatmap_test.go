package experiments

import (
	"bytes"
	"image/png"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"geomob/internal/geo"
	"geomob/internal/randx"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := newDensityGrid(geo.EmptyBBox(), 10, 10); err == nil {
		t.Error("empty box should fail")
	}
	if _, err := newDensityGrid(geo.AustraliaBBox, 0, 10); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := newDensityGrid(geo.AustraliaBBox, 10, -1); err == nil {
		t.Error("negative height should fail")
	}
}

func TestGridAddAndCounts(t *testing.T) {
	g, err := newDensityGrid(geo.AustraliaBBox, 100, 80)
	if err != nil {
		t.Fatal(err)
	}
	sydney := geo.Point{Lat: -33.8688, Lon: 151.2093}
	for i := 0; i < 50; i++ {
		if !g.add(sydney) {
			t.Fatal("point inside box rejected")
		}
	}
	if g.add(geo.Point{Lat: 40, Lon: -74}) {
		t.Error("point outside box accepted")
	}
	if g.Total() != 50 {
		t.Errorf("Total = %v", g.Total())
	}
	if g.max() != 50 {
		t.Errorf("Max = %v, want all mass in one cell", g.max())
	}
}

func TestGridCornersLandInGrid(t *testing.T) {
	box := geo.AustraliaBBox
	g, _ := newDensityGrid(box, 10, 10)
	corners := []geo.Point{
		{Lat: box.MinLat, Lon: box.MinLon},
		{Lat: box.MinLat, Lon: box.MaxLon},
		{Lat: box.MaxLat, Lon: box.MinLon},
		{Lat: box.MaxLat, Lon: box.MaxLon},
	}
	for _, c := range corners {
		if !g.add(c) {
			t.Errorf("corner %v rejected", c)
		}
	}
	if g.Total() != 4 {
		t.Errorf("Total = %v", g.Total())
	}
}

func TestWritePNG(t *testing.T) {
	g, _ := newDensityGrid(geo.AustraliaBBox, 60, 48)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		g.add(geo.Point{
			Lat: -34 + rng.NormFloat64(),
			Lon: 151 + rng.NormFloat64(),
		})
	}
	var buf bytes.Buffer
	if err := g.writePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a valid PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 60 || b.Dy() != 48 {
		t.Errorf("image is %dx%d", b.Dx(), b.Dy())
	}
}

func TestWriteASCII(t *testing.T) {
	g, _ := newDensityGrid(geo.AustraliaBBox, 40, 20)
	sydney := geo.Point{Lat: -33.8688, Lon: 151.2093}
	for i := 0; i < 1000; i++ {
		g.add(sydney)
	}
	var buf bytes.Buffer
	if err := g.writeASCII(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("got %d lines, want 20", len(lines))
	}
	for i, line := range lines {
		if len(line) != 40 {
			t.Fatalf("line %d has %d chars", i, len(line))
		}
	}
	// The dense Sydney cell must use the darkest glyph.
	if !strings.Contains(buf.String(), "@") {
		t.Error("densest glyph missing")
	}
}

func TestDensityDecades(t *testing.T) {
	g, _ := newDensityGrid(geo.AustraliaBBox, 50, 40)
	sydney := geo.Point{Lat: -33.8688, Lon: 151.2093}
	perth := geo.Point{Lat: -31.9523, Lon: 115.8613}
	for i := 0; i < 100000; i++ {
		g.add(sydney)
	}
	g.add(perth) // single tweet far away
	if d := g.DensityDecades(); d < 4.9 || d > 5.1 {
		t.Errorf("decades = %v, want ~5", d)
	}
	empty, _ := newDensityGrid(geo.AustraliaBBox, 5, 5)
	if d := empty.DensityDecades(); d != 0 {
		t.Errorf("empty grid decades = %v", d)
	}
}

func TestLogScaleMonotone(t *testing.T) {
	g, _ := newDensityGrid(geo.AustraliaBBox, 2, 2)
	prev := -1.0
	for _, v := range []float64{0, 1, 10, 100, 1000} {
		s := g.logScale(v, 1000)
		if s < prev {
			t.Fatalf("logScale not monotone at %v", v)
		}
		if s < 0 || s > 1 {
			t.Fatalf("logScale out of range: %v", s)
		}
		prev = s
	}
}

// BenchmarkHeatmapRender measures Fig. 1 rendering.
func BenchmarkHeatmapRender(b *testing.B) {
	grid, err := newDensityGrid(geo.AustraliaBBox, 360, 280)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(9, 10)
	for i := 0; i < 100000; i++ {
		grid.add(geo.Point{Lat: -34 + rng.NormFloat64(), Lon: 151 + rng.NormFloat64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grid.writePNG(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
