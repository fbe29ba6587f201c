package index

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"geomob/internal/census"
	"geomob/internal/geo"
	"geomob/internal/testx"
)

// resolverConfig mirrors the study's real assignment configurations: the
// three paper scales plus the fixed metro 0.5 km variant.
type resolverConfig struct {
	name    string
	entries []Entry
	radius  float64
}

// clusteredEntries draws n entries clustered around a handful of sites
// within the box, which is how census areas actually look (suburbs of one
// city, cities of one coast) and produces contested cells.
func clusteredEntries(rng *rand.Rand, n int, box geo.BBox, spreadDeg float64) []Entry {
	sites := make([]geo.Point, 1+rng.IntN(5))
	for i := range sites {
		sites[i] = geo.Point{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	entries := make([]Entry, n)
	for i := range entries {
		s := sites[rng.IntN(len(sites))]
		p := geo.Point{
			Lat: s.Lat + (rng.Float64()-0.5)*spreadDeg,
			Lon: s.Lon + (rng.Float64()-0.5)*spreadDeg,
		}
		if p.Lat > 90 {
			p.Lat = 90
		}
		if p.Lat < -90 {
			p.Lat = -90
		}
		entries[i] = Entry{ID: int64(i), P: p}
	}
	return entries
}

func resolverConfigs(rng *rand.Rand) []resolverConfig {
	au := geo.AustraliaBBox
	return []resolverConfig{
		{"national-50km", clusteredEntries(rng, 20, au, 8), 50_000},
		{"state-25km", clusteredEntries(rng, 20, au, 3), 25_000},
		{"metro-2km", clusteredEntries(rng, 20, geo.BBox{MinLat: -34.1, MinLon: 150.6, MaxLat: -33.7, MaxLon: 151.3}, 0.3), 2_000},
		{"metro-500m", clusteredEntries(rng, 20, geo.BBox{MinLat: -34.1, MinLon: 150.6, MaxLat: -33.7, MaxLon: 151.3}, 0.3), 500},
		{"dense-duplicates", append(clusteredEntries(rng, 30, au, 0.5), Entry{ID: 30, P: geo.Point{Lat: -33.9, Lon: 151.2}}, Entry{ID: 31, P: geo.Point{Lat: -33.9, Lon: 151.2}}), 10_000},
	}
}

// treeAssign is the exactness reference: the paper's nearest-within-ε rule
// answered by the k-d tree oracle.
func treeAssign(t *KDTree, p geo.Point, radius float64) int64 {
	e, _, ok := t.nearestWithin(p, radius)
	if !ok {
		return -1
	}
	return e.ID
}

// checkPoint asserts resolver ≡ tree on one query point.
func checkPoint(t *testing.T, name string, r *Resolver, p geo.Point) {
	t.Helper()
	got := r.Resolve(p)
	want := treeAssign(r.tree, p, r.Radius())
	if got != want {
		d := math.Inf(1)
		if want >= 0 {
			e, dd, _ := r.tree.nearestWithin(p, r.Radius())
			_ = e
			d = dd
		}
		t.Fatalf("%s: Resolve(%v) = %d, tree oracle = %d (oracle dist %v, radius %v)",
			name, p, got, want, d, r.Radius())
	}
}

// TestResolverMatchesTreeFuzz is the exactness property test: on every
// study-shaped configuration the grid answer must equal the k-d tree
// oracle for uniformly random points, for points placed just inside and
// just outside the search radius of each entry, and for points sampled on
// exact grid cell boundaries (the corners are where an unsound dominance
// proof would first show).
func TestResolverMatchesTreeFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, cfg := range resolverConfigs(rng) {
		r, err := NewResolver(cfg.entries, cfg.radius)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		// Cells listing candidates each close a candStart run; the rest
		// were proved single-answer at construction.
		if total := len(r.cells); total > 0 && total == len(r.candStart)-1 {
			t.Errorf("%s: no cell resolved out of %d — dominance proof never fires", cfg.name, total)
		}

		// Uniform points over a box somewhat wider than the band, so the
		// outside-band fast path is exercised too.
		box := geo.BBox{
			MinLat: math.Max(r.minLat-1, -90), MaxLat: math.Min(r.maxLat+1, 90),
			MinLon: math.Max(r.minLon-1, -180), MaxLon: math.Min(r.maxLon+1, 180),
		}
		for i := 0; i < 20000; i++ {
			p := geo.Point{
				Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
				Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
			}
			checkPoint(t, cfg.name, r, p)
		}

		// ε-edge points: just inside, exactly at, and just outside the
		// search radius of every entry, at random bearings.
		for _, e := range cfg.entries {
			for _, f := range []float64{0.25, 0.999, 0.999999, 1, 1.000001, 1.001, 1.5, 2.2} {
				brg := rng.Float64() * 360
				checkPoint(t, cfg.name, r, testx.Destination(e.P, brg, cfg.radius*f))
			}
		}

		// Cell-boundary points: exact corners and edge midpoints of random
		// grid cells, plus nudges a few ULPs to either side.
		if !r.degenerate {
			cellLat := 1 / r.invCellLat
			cellLon := 1 / r.invCellLon
			for i := 0; i < 4000; i++ {
				iy := rng.IntN(r.ny + 1)
				ix := rng.IntN(r.nx + 1)
				corner := geo.Point{
					Lat: r.minLat + float64(iy)*cellLat,
					Lon: r.minLon + float64(ix)*cellLon,
				}
				checkPoint(t, cfg.name, r, corner)
				checkPoint(t, cfg.name, r, geo.Point{Lat: math.Nextafter(corner.Lat, 90), Lon: corner.Lon})
				checkPoint(t, cfg.name, r, geo.Point{Lat: math.Nextafter(corner.Lat, -90), Lon: corner.Lon})
				checkPoint(t, cfg.name, r, geo.Point{Lat: corner.Lat, Lon: math.Nextafter(corner.Lon, 180)})
				checkPoint(t, cfg.name, r, geo.Point{Lat: corner.Lat + cellLat/2, Lon: corner.Lon + cellLon/2})
			}
		}
	}
}

// TestResolverDegenerateGeometries: configurations that defeat the grid's
// longitude bounds (polar latitudes, radii reaching around the globe,
// bands crossing the antimeridian) must fall back to the exact tree, not
// produce an unsound grid.
func TestResolverDegenerateGeometries(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	cases := []resolverConfig{
		{"polar", clusteredEntries(rng, 10, geo.BBox{MinLat: 88, MinLon: -30, MaxLat: 89.9, MaxLon: 30}, 0.5), 50_000},
		{"global-radius", clusteredEntries(rng, 10, geo.AustraliaBBox, 5), 15_000_000},
		{"antimeridian", []Entry{
			{ID: 0, P: geo.Point{Lat: -18, Lon: 179.8}},
			{ID: 1, P: geo.Point{Lat: -18.2, Lon: -179.7}},
			{ID: 2, P: geo.Point{Lat: -17.5, Lon: 178.9}},
		}, 40_000},
	}
	for _, cfg := range cases {
		r, err := NewResolver(cfg.entries, cfg.radius)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !r.degenerate {
			t.Errorf("%s: expected a degenerate (tree-backed) resolver", cfg.name)
		}
		for i := 0; i < 2000; i++ {
			p := geo.Point{Lat: -90 + rng.Float64()*180, Lon: -180 + rng.Float64()*360}
			checkPoint(t, cfg.name, r, p)
		}
		// NaN coordinates must yield the no-area answer on the tree
		// fallback path too, not a panic.
		if got := r.Resolve(geo.Point{Lat: math.NaN(), Lon: 10}); got != -1 {
			t.Errorf("%s: Resolve(NaN) = %d, want -1", cfg.name, got)
		}
		if got := r.Resolve(geo.Point{Lat: -18, Lon: math.NaN()}); got != -1 {
			t.Errorf("%s: Resolve(NaN lon) = %d, want -1", cfg.name, got)
		}
	}
}

// TestResolverRejectsBadInput: construction fails fast on unusable input.
func TestResolverRejectsBadInput(t *testing.T) {
	if _, err := NewResolver(nil, 100); err == nil {
		t.Error("empty entry set should fail")
	}
	p := geo.Point{Lat: -33, Lon: 151}
	if _, err := NewResolver([]Entry{{ID: -1, P: p}}, 100); err == nil {
		t.Error("negative entry ID should fail")
	}
	if _, err := NewResolver([]Entry{{ID: 0, P: geo.Point{Lat: math.NaN(), Lon: 151}}}, 100); err == nil {
		t.Error("NaN coordinates should fail")
	}
	for _, radius := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewResolver([]Entry{{ID: 0, P: p}}, radius); err == nil {
			t.Errorf("radius %v should fail", radius)
		}
	}
}

// TestResolverZeroRadius: a zero search radius assigns only exact entry
// coordinates, matching the tree.
func TestResolverZeroRadius(t *testing.T) {
	entries := []Entry{
		{ID: 0, P: geo.Point{Lat: -33.8688, Lon: 151.2093}},
		{ID: 1, P: geo.Point{Lat: -37.8136, Lon: 144.9631}},
	}
	r, err := NewResolver(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		checkPoint(t, "zero-radius", r, e.P)
	}
	checkPoint(t, "zero-radius", r, geo.Point{Lat: -33.8688, Lon: 151.21})
	checkPoint(t, "zero-radius", r, geo.Point{Lat: 0, Lon: 0})
}

// TestResolverNoAllocs: the per-point assignment hot path must not touch
// the heap — neither on resolved cells, nor on candidate lists, nor on
// the outside-band fast path.
func TestResolverNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	entries := clusteredEntries(rng, 20, geo.AustraliaBBox, 5)
	r, err := NewResolver(entries, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]geo.Point, 512)
	for i := range queries {
		queries[i] = geo.Point{Lat: -44 + rng.Float64()*35, Lon: 112 + rng.Float64()*48}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		r.Resolve(queries[i%len(queries)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Resolve allocated %v times per op, want 0", allocs)
	}
}

// TestKDTreeNearestNoAllocs: the rewritten iterative walk must be
// allocation-free (it previously allocated a sorted refine sweep per
// call).
func TestKDTreeNearestNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	tree, err := newKDTree(makeEntries(rng, 500))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]geo.Point, 512)
	for i := range queries {
		queries[i] = randomAUPoint(rng)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		tree.nearest(queries[i%len(queries)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Nearest allocated %v times per op, want 0", allocs)
	}
}

// buildExhaustive is the reference the reach-bounded Resolver.build must
// equal bit for bit: the same band and cell layout, but every cell
// classified against every entry, O(cells × entries).
func (r *Resolver) buildExhaustive(entBox geo.BBox) {
	pad := r.radius * resolverBandSlack
	rDeg := pad / geo.MetersPerDegreeLat
	r.minLat = math.Max(entBox.MinLat-rDeg, -90)
	r.maxLat = math.Min(entBox.MaxLat+rDeg, 90)

	// cosFloor over the whole lat band: the longitude reach of the radius
	// and the cell lower bounds both need it. Near the poles the bounds
	// collapse; fall back to the tree.
	cosFloor := bandCosFloor(r.minLat, r.maxLat)
	if cosFloor < resolverCosFloorMin {
		r.degenerate = true
		return
	}
	// Longitude reach of the padded radius anywhere in the band, from the
	// haversine identity sin²(d/2R) >= cosφ₁·cosφ₂·sin²(Δλ/2): a point
	// within pad metres of an entry differs by at most dLonDeg degrees.
	sinHalf := math.Sin(pad/(2*geo.EarthRadius)) / cosFloor
	if sinHalf >= 1 {
		r.degenerate = true
		return
	}
	dLonDeg := 2 * math.Asin(sinHalf) * 180 / math.Pi
	r.minLon = entBox.MinLon - dLonDeg
	r.maxLon = entBox.MaxLon + dLonDeg
	if r.minLon < -180 || r.maxLon > 180 {
		// The band would cross the antimeridian; the gap arithmetic below
		// assumes it does not. Exactness beats coverage: use the tree.
		r.degenerate = true
		return
	}

	// Cell extents: ~resolverCellFraction of the radius per side, capped
	// at resolverMaxCells total, then stretched to tile the band exactly.
	target := r.radius * resolverCellFraction
	if target <= 0 {
		target = 1 // radius 0: any cell size is sound, resolve by candidates
	}
	cellLat := target / geo.MetersPerDegreeLat
	cellLon := target / (geo.MetersPerDegreeLat * math.Max(cosFloor, resolverCosFloorMin))
	latSpan := r.maxLat - r.minLat
	lonSpan := r.maxLon - r.minLon
	ny := int(math.Ceil(latSpan / cellLat))
	nx := int(math.Ceil(lonSpan / cellLon))
	if ny < 1 {
		ny = 1
	}
	if nx < 1 {
		nx = 1
	}
	if total := float64(nx) * float64(ny); total > resolverMaxCells {
		scale := math.Sqrt(total / resolverMaxCells)
		ny = int(math.Ceil(float64(ny) / scale))
		nx = int(math.Ceil(float64(nx) / scale))
	}
	r.nx, r.ny = nx, ny
	cellLat = latSpan / float64(ny)
	cellLon = lonSpan / float64(nx)
	if cellLat > 0 {
		r.invCellLat = 1 / cellLat
	}
	if cellLon > 0 {
		r.invCellLon = 1 / cellLon
	}

	r.cells = make([]int32, nx*ny)
	r.candStart = []int32{0}
	lb := make([]float64, len(r.pts))
	ub := make([]float64, len(r.pts))
	scratch := make([]int32, 0, len(r.pts))
	for iy := 0; iy < ny; iy++ {
		latLo := r.minLat + float64(iy)*cellLat
		latHi := latLo + cellLat
		// Bounds on cos(latitude) over the cell's lat range: the floor
		// tightens entry lower bounds, the ceiling caps the half-diagonal.
		cosCellFloor := bandCosFloor(latLo, latHi)
		cosCellCeil := bandCosCeil(latLo, latHi)
		halfDiag := 0.5*cellLat*geo.MetersPerDegreeLat +
			0.5*cellLon*geo.MetersPerDegreeLat*cosCellCeil
		for ix := 0; ix < nx; ix++ {
			lonLo := r.minLon + float64(ix)*cellLon
			lonHi := lonLo + cellLon
			center := geo.Point{Lat: (latLo + latHi) / 2, Lon: (lonLo + lonHi) / 2}
			minUB := math.Inf(1)
			for j, q := range r.pts {
				lb[j] = cellLowerBound(q, latLo, latHi, lonLo, lonHi, cosCellFloor)
				ub[j] = geo.Haversine(q, center) + halfDiag
				if ub[j] < minUB {
					minUB = ub[j]
				}
			}
			// An entry is a candidate only if it can be assigned somewhere
			// in the cell (lb <= radius) and is not strictly dominated
			// everywhere by another entry (lb <= minUB).
			scratch = scratch[:0]
			for j := range r.pts {
				if lb[j] <= r.radius && lb[j] <= minUB {
					scratch = append(scratch, int32(j))
				}
			}
			ci := iy*nx + ix
			switch {
			case len(scratch) == 0:
				r.cells[ci] = cellNoEntry
			case len(scratch) == 1 && ub[scratch[0]] <= r.radius:
				// Single surviving entry, whole cell within its radius:
				// every point in the cell resolves to it.
				r.cells[ci] = scratch[0]
			default:
				r.cells[ci] = cellListBase - int32(len(r.candStart)-1)
				r.cands = append(r.cands, scratch...)
				r.candStart = append(r.candStart, int32(len(r.cands)))
			}
		}
	}
}

// exhaustiveResolver lays out the entries as NewResolver does and builds
// the grid with the exhaustive reference classifier.
func exhaustiveResolver(entries []Entry, radius float64) *Resolver {
	r := &Resolver{radius: radius}
	entBox := geo.EmptyBBox()
	for _, e := range entries {
		r.ids = append(r.ids, e.ID)
		r.pts = append(r.pts, e.P)
		entBox = entBox.Extend(e.P)
	}
	r.buildExhaustive(entBox)
	return r
}

// checkBuildMatchesExhaustive asserts every field the build writes equals
// the exhaustive reference.
func checkBuildMatchesExhaustive(t *testing.T, name string, entries []Entry, radius float64) *Resolver {
	t.Helper()
	got, err := NewResolver(entries, radius)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := exhaustiveResolver(entries, radius)
	if got.degenerate != want.degenerate || got.nx != want.nx || got.ny != want.ny {
		t.Fatalf("%s: degenerate/nx/ny = %v/%d/%d, reference %v/%d/%d", name,
			got.degenerate, got.nx, got.ny, want.degenerate, want.nx, want.ny)
	}
	if !slices.Equal(got.cells, want.cells) {
		t.Fatalf("%s: cells differ from the exhaustive reference (%d cells)", name, len(want.cells))
	}
	if !slices.Equal(got.candStart, want.candStart) || !slices.Equal(got.cands, want.cands) {
		t.Fatalf("%s: candidate lists differ from the exhaustive reference", name)
	}
	return got
}

func areaEntries(t *testing.T, s census.Scale) []Entry {
	t.Helper()
	rs, err := census.Australia().Regions(s)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, len(rs.Areas))
	for i, a := range rs.Areas {
		entries[i] = Entry{ID: int64(i), P: a.Center}
	}
	return entries
}

// TestResolverBuildMatchesExhaustive: the reach-bounded build is the
// exhaustive build, not an approximation of it — on the four assignment
// configurations the study runs and on seeded random entry sets across
// the radii and spreads that change the grid's shape (radius 0, cells a
// metre wide, a continent of 75 km cells, the resolverMaxCells cap).
func TestResolverBuildMatchesExhaustive(t *testing.T) {
	for _, c := range []struct {
		name   string
		scale  census.Scale
		radius float64
	}{
		{"national", census.ScaleNational, census.ScaleNational.SearchRadius()},
		{"state", census.ScaleState, census.ScaleState.SearchRadius()},
		{"metro", census.ScaleMetropolitan, census.ScaleMetropolitan.SearchRadius()},
		{"metro500", census.ScaleMetropolitan, 500},
	} {
		r := checkBuildMatchesExhaustive(t, c.name, areaEntries(t, c.scale), c.radius)
		if r.degenerate {
			t.Errorf("%s: study configuration built no grid", c.name)
		}
	}

	au := geo.AustraliaBBox
	sydney := geo.BBox{MinLat: -34.1, MinLon: 150.6, MaxLat: -33.7, MaxLon: 151.3}
	block := geo.BBox{MinLat: -33.871, MinLon: 151.2, MaxLat: -33.869, MaxLon: 151.202}
	rng := rand.New(rand.NewPCG(31, 32))
	// Boxes and spreads are sized so the reference stays affordable:
	// cells × entries is what the exhaustive classifier pays.
	for _, c := range []struct {
		radius    float64
		box       geo.BBox
		spreadDeg float64
	}{
		{0, block, 0.0005},
		{0, block, 0},
		{500, sydney, 0.05},
		{500, block, 0.3},
		{2_000, sydney, 0.3},
		{2_000, sydney, 1},
		{25_000, sydney, 3},
		{25_000, au, 5},
		{50_000, sydney, 1},
		{50_000, au, 8},
		{300_000, sydney, 2},
		{300_000, au, 20},
	} {
		for rep := 0; rep < 3; rep++ {
			n := 1 + rng.IntN(80)
			name := fmt.Sprintf("random r=%v spread=%v n=%d", c.radius, c.spreadDeg, n)
			checkBuildMatchesExhaustive(t, name, clusteredEntries(rng, n, c.box, c.spreadDeg), c.radius)
		}
	}

	// A continent of 125 m cells: the layout hits resolverMaxCells and
	// stretches the cells, so the index margin is exercised on cells that
	// are not the size the radius asked for.
	capped := checkBuildMatchesExhaustive(t, "max-cells", clusteredEntries(rng, 3, au, 8), 500)
	if got := capped.nx * capped.ny; capped.degenerate || got < resolverMaxCells/2 {
		t.Errorf("max-cells: %d cells (degenerate %v), want the grid at its cap", got, capped.degenerate)
	}
}
