package experiments

// The tweet-density map of Fig. 1: points are binned on a regular
// latitude/longitude grid and drawn with a logarithmic colour scale, as
// PNG for inspection and as ASCII for terminal-friendly experiment output.

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"strings"

	"geomob/internal/geo"
)

// DensityGrid is a density histogram over a bounding box.
type DensityGrid struct {
	Box    geo.BBox
	NX, NY int
	Counts []float64 // row-major, NY rows of NX cells; row 0 is the north edge
	total  float64
}

// newDensityGrid allocates an NX×NY density grid over the box.
func newDensityGrid(box geo.BBox, nx, ny int) (*DensityGrid, error) {
	if box.IsEmpty() {
		return nil, fmt.Errorf("experiments: heatmap: empty bounding box")
	}
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("experiments: heatmap: grid must be at least 1x1, got %dx%d", nx, ny)
	}
	return &DensityGrid{Box: box, NX: nx, NY: ny, Counts: make([]float64, nx*ny)}, nil
}

// add accumulates one point; points outside the box are ignored and
// reported by the return value.
func (g *DensityGrid) add(p geo.Point) bool {
	if !g.Box.Contains(p) {
		return false
	}
	fx := (p.Lon - g.Box.MinLon) / (g.Box.MaxLon - g.Box.MinLon)
	fy := (g.Box.MaxLat - p.Lat) / (g.Box.MaxLat - g.Box.MinLat)
	x := int(fx * float64(g.NX))
	y := int(fy * float64(g.NY))
	if x >= g.NX {
		x = g.NX - 1
	}
	if y >= g.NY {
		y = g.NY - 1
	}
	g.Counts[y*g.NX+x]++
	g.total++
	return true
}

// Total returns the number of accumulated points.
func (g *DensityGrid) Total() float64 { return g.total }

// max returns the largest cell count.
func (g *DensityGrid) max() float64 {
	var max float64
	for _, v := range g.Counts {
		if v > max {
			max = v
		}
	}
	return max
}

// logScale maps a count to [0, 1] on a log scale against the grid maximum.
func (g *DensityGrid) logScale(v, max float64) float64 {
	if v <= 0 || max <= 0 {
		return 0
	}
	return math.Log1p(v) / math.Log1p(max)
}

// writePNG renders the grid with the classic black→blue→red→yellow heat
// palette on a log colour scale (the paper's Fig. 1 uses a log colourbar
// spanning 10⁰..10⁵).
func (g *DensityGrid) writePNG(w io.Writer) error {
	img := image.NewRGBA(image.Rect(0, 0, g.NX, g.NY))
	max := g.max()
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			img.Set(x, y, heatColor(g.logScale(g.Counts[y*g.NX+x], max)))
		}
	}
	if err := png.Encode(w, img); err != nil {
		return fmt.Errorf("experiments: heatmap: encode png: %w", err)
	}
	return nil
}

// heatColor maps t in [0,1] to a black-body-style palette.
func heatColor(t float64) color.RGBA {
	if t <= 0 {
		return color.RGBA{8, 8, 24, 255} // near-black ocean/empty
	}
	switch {
	case t < 0.25:
		f := t / 0.25
		return color.RGBA{uint8(8 + f*40), uint8(8 + f*40), uint8(24 + f*180), 255}
	case t < 0.5:
		f := (t - 0.25) / 0.25
		return color.RGBA{uint8(48 + f*160), uint8(48 + f*20), uint8(204 - f*120), 255}
	case t < 0.75:
		f := (t - 0.5) / 0.25
		return color.RGBA{uint8(208 + f*47), uint8(68 + f*120), uint8(84 - f*60), 255}
	default:
		f := (t - 0.75) / 0.25
		return color.RGBA{255, uint8(188 + f*67), uint8(24 + f*200), 255}
	}
}

// asciiRamp orders glyphs from empty to dense.
const asciiRamp = " .:-=+*#%@"

// writeASCII renders the grid as text, one glyph per cell, densest cells
// darkest. Suitable for experiment logs.
func (g *DensityGrid) writeASCII(w io.Writer) error {
	max := g.max()
	var sb strings.Builder
	sb.Grow((g.NX + 1) * g.NY)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			t := g.logScale(g.Counts[y*g.NX+x], max)
			idx := int(t * float64(len(asciiRamp)-1))
			sb.WriteByte(asciiRamp[idx])
		}
		sb.WriteByte('\n')
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("experiments: heatmap: write ascii: %w", err)
	}
	return nil
}

// DensityDecades returns how many powers of ten the non-zero cell counts
// span — Fig. 1's colourbar covers five decades (10⁰..10⁵).
func (g *DensityGrid) DensityDecades() float64 {
	min := math.Inf(1)
	max := 0.0
	for _, v := range g.Counts {
		if v > 0 {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if max == 0 || math.IsInf(min, 1) || min == 0 {
		return 0
	}
	return math.Log10(max / min)
}
