package index

// This file implements the grid-resolved nearest-within-radius assignment
// layer (DESIGN.md §6): the paper's "nearest census area within search
// radius ε" rule, precomputed over a uniform grid so the per-point lookup
// is an array index instead of a tree walk. The k-d tree remains the
// construction-time oracle and the exactness reference — every cell is
// either *proved* to have a single possible answer using conservative
// great-circle bounds, or it carries the short list of candidates that a
// query verifies with a few exact haversine distances.

import (
	"fmt"
	"math"
	"slices"

	"geomob/internal/geo"
)

const (
	// resolverCellFraction sizes grid cells relative to the search radius.
	// Smaller cells prove dominance for more of the plane (fewer candidate
	// scans) at the cost of memory and construction time.
	resolverCellFraction = 0.25
	// resolverMaxCells caps the grid size; cells grow uniformly when the
	// band would exceed it. 2^21 int32 cells is 8 MiB.
	resolverMaxCells = 1 << 21
	// resolverBandSlack expands the covered band slightly beyond the exact
	// reach of the search radius, so a point outside the band is *strictly*
	// farther than radius from every entry (the boundary case lands inside
	// the band, where it is answered exactly).
	resolverBandSlack = 1.001
	// resolverCosFloorMin is the minimum usable cos(latitude): closer to
	// the poles the longitude bounds degrade and the resolver falls back to
	// the exact tree for every query instead of risking an unsound grid.
	resolverCosFloorMin = 0.05

	// cellNoEntry marks a cell proved to be beyond the search radius of
	// every entry. Cell values >= 0 are resolved entry slots; values
	// <= cellListBase encode a candidate-list index as cellListBase - v.
	cellNoEntry  = int32(-1)
	cellListBase = int32(-2)
)

// Resolver answers the paper's search-radius area assignment — "the entry
// nearest to p, provided it lies within radius metres" — in O(1) for the
// overwhelming majority of points: a uniform grid over the entries'
// reachable band stores, per cell, either the entry that provably wins
// everywhere in the cell (or that no entry is in reach), or a short
// candidate list verified with exact haversine distances at query time.
// Resolve is allocation-free and exact: it agrees with
// KDTree.nearestWithin on every input.
type Resolver struct {
	tree   *KDTree
	ids    []int64
	pts    []geo.Point
	radius float64

	minLat, maxLat float64
	minLon, maxLon float64
	invCellLat     float64
	invCellLon     float64
	nx, ny         int
	cells          []int32
	candStart      []int32
	cands          []int32

	// degenerate marks configurations where the longitude bounds cannot be
	// made sound (polar bands, radii reaching around the globe, bands
	// crossing the antimeridian): every query falls back to the exact tree.
	degenerate bool
}

// NewResolver precomputes the assignment grid for the entries at the given
// search radius in metres. Entry IDs must be non-negative (the no-entry
// answer is -1). The entries are also indexed into the internal k-d tree,
// which remains the oracle for ambiguous cells and degenerate geometries.
func NewResolver(entries []Entry, radius float64) (*Resolver, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: resolver requires at least one entry")
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("index: resolver radius must be finite and non-negative, got %v", radius)
	}
	tree, err := newKDTree(entries)
	if err != nil {
		return nil, err
	}
	r := &Resolver{
		tree:   tree,
		ids:    make([]int64, len(entries)),
		pts:    make([]geo.Point, len(entries)),
		radius: radius,
	}
	entBox := geo.EmptyBBox()
	for i, e := range entries {
		if e.ID < 0 {
			return nil, fmt.Errorf("index: resolver entry %d has negative ID %d", i, e.ID)
		}
		if !e.P.Valid() {
			return nil, fmt.Errorf("index: resolver entry %d has invalid coordinates %v", i, e.P)
		}
		r.ids[i] = e.ID
		r.pts[i] = e.P
		entBox = entBox.Extend(e.P)
	}
	r.build(entBox)
	return r, nil
}

// build lays out the grid band and classifies every cell. When the
// geometry defeats the longitude bounds it marks the resolver degenerate
// instead — correctness never depends on the grid being buildable.
func (r *Resolver) build(entBox geo.BBox) {
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
	for i := range r.cells {
		r.cells[i] = cellNoEntry
	}
	r.candStart = []int32{0}

	// Reach box of every entry in cell indices. A cell outside the padded
	// radius in latitude or dLonDeg in longitude of an entry has
	// cellLowerBound > radius for it, so the entry is no candidate there,
	// and neither can its (larger still) upper bound be the dominance
	// cut-off of an entry that is. Classifying a cell against only the
	// entries whose box covers it therefore gives exactly the result of
	// classifying it against all of them (DESIGN.md §6); the one-cell
	// margin keeps that true under rounding of the index arithmetic.
	type cellBox struct{ ix0, ix1, iy0, iy1 int }
	cellOf := func(deg, inv float64, margin, n int) int {
		return min(max(int(math.Floor(deg*inv))+margin, 0), n-1)
	}
	reach := make([]cellBox, len(r.pts))
	for j, q := range r.pts {
		reach[j] = cellBox{
			ix0: cellOf(q.Lon-dLonDeg-r.minLon, r.invCellLon, -1, nx),
			ix1: cellOf(q.Lon+dLonDeg-r.minLon, r.invCellLon, +1, nx),
			iy0: cellOf(q.Lat-rDeg-r.minLat, r.invCellLat, -1, ny),
			iy1: cellOf(q.Lat+rDeg-r.minLat, r.invCellLat, +1, ny),
		}
	}

	lb := make([]float64, len(r.pts))
	ub := make([]float64, len(r.pts))
	scratch := make([]int32, 0, len(r.pts))
	// Per row, the entries in reach of each cell in ascending slot order:
	// rowEnts[rowStart[ix]:rowStart[ix+1]], laid out by a counting sort.
	rowStart := make([]int32, nx+1)
	rowNext := make([]int32, nx)
	var rowEnts []int32
	for iy := 0; iy < ny; iy++ {
		clear(rowStart)
		for _, b := range reach {
			if iy >= b.iy0 && iy <= b.iy1 {
				for ix := b.ix0; ix <= b.ix1; ix++ {
					rowStart[ix+1]++
				}
			}
		}
		for ix := 0; ix < nx; ix++ {
			rowStart[ix+1] += rowStart[ix]
		}
		if rowStart[nx] == 0 {
			continue
		}
		rowEnts = slices.Grow(rowEnts[:0], int(rowStart[nx]))[:rowStart[nx]]
		copy(rowNext, rowStart)
		for j, b := range reach {
			if iy >= b.iy0 && iy <= b.iy1 {
				for ix := b.ix0; ix <= b.ix1; ix++ {
					rowEnts[rowNext[ix]] = int32(j)
					rowNext[ix]++
				}
			}
		}

		latLo := r.minLat + float64(iy)*cellLat
		latHi := latLo + cellLat
		// Bounds on cos(latitude) over the cell's lat range: the floor
		// tightens entry lower bounds, the ceiling caps the half-diagonal.
		cosCellFloor := bandCosFloor(latLo, latHi)
		cosCellCeil := bandCosCeil(latLo, latHi)
		halfDiag := 0.5*cellLat*geo.MetersPerDegreeLat +
			0.5*cellLon*geo.MetersPerDegreeLat*cosCellCeil
		for ix := 0; ix < nx; ix++ {
			inReach := rowEnts[rowStart[ix]:rowStart[ix+1]]
			if len(inReach) == 0 {
				continue
			}
			lonLo := r.minLon + float64(ix)*cellLon
			lonHi := lonLo + cellLon
			center := geo.Point{Lat: (latLo + latHi) / 2, Lon: (lonLo + lonHi) / 2}
			minUB := math.Inf(1)
			for _, j := range inReach {
				q := r.pts[j]
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
			for _, j := range inReach {
				if lb[j] <= r.radius && lb[j] <= minUB {
					scratch = append(scratch, j)
				}
			}
			ci := iy*nx + ix
			switch {
			case len(scratch) == 0:
				// stays cellNoEntry
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

// bandCosFloor returns the minimum of cos(latitude) over [latLo, latHi]
// degrees (attained at the extreme absolute latitude), clamped at zero.
func bandCosFloor(latLo, latHi float64) float64 {
	m := math.Max(math.Abs(latLo), math.Abs(latHi))
	c := math.Cos(m * math.Pi / 180)
	if c < 0 {
		return 0
	}
	return c
}

// bandCosCeil returns the maximum of cos(latitude) over [latLo, latHi]
// degrees: 1 when the band crosses the equator, else the cosine at the
// latitude closest to it.
func bandCosCeil(latLo, latHi float64) float64 {
	if latLo <= 0 && latHi >= 0 {
		return 1
	}
	m := math.Min(math.Abs(latLo), math.Abs(latHi))
	return math.Cos(m * math.Pi / 180)
}

// cellLowerBound returns a provable lower bound in metres on the
// great-circle distance from q to any point of the cell rectangle. The
// latitude bound is the exact meridian arc across the latitude gap; the
// longitude bound follows from sin²(d/2R) >= cosφ₁·cosφ₂·sin²(Δλ/2) with
// cosφ bounded below over the cell (the same identity as splitLowerBound).
func cellLowerBound(q geo.Point, latLo, latHi, lonLo, lonHi, cosCellFloor float64) float64 {
	latGap := 0.0
	if q.Lat < latLo {
		latGap = latLo - q.Lat
	} else if q.Lat > latHi {
		latGap = q.Lat - latHi
	}
	bound := latGap * geo.MetersPerDegreeLat

	lonGap := 0.0
	if q.Lon < lonLo {
		lonGap = lonLo - q.Lon
	} else if q.Lon > lonHi {
		lonGap = q.Lon - lonHi
	}
	if lonGap > 0 {
		c := math.Cos(q.Lat*math.Pi/180) * cosCellFloor
		if c > 0 {
			s := math.Sin(lonGap * math.Pi / 180 / 2)
			// sin(Δλ/2) is not monotone beyond 180°: if the far edge of
			// the cell is more than 180° away the minimum over the gap
			// range sits at that edge, not at the near one.
			if farGap := math.Max(lonHi-q.Lon, q.Lon-lonLo); farGap > 180 {
				s = math.Min(s, math.Sin(farGap*math.Pi/180/2))
			}
			v := math.Sqrt(c) * s
			if v > 1 {
				v = 1
			}
			if lonBound := 2 * geo.EarthRadius * math.Asin(v); lonBound > bound {
				bound = lonBound
			}
		}
	}
	return bound
}

// Radius returns the search radius the resolver was built for.
func (r *Resolver) Radius() float64 { return r.radius }

// Resolve returns the ID of the entry nearest to p if it lies within the
// search radius, and -1 when no entry is in reach. It is exact — identical
// to the tree's nearestWithin — and performs no heap allocations: most points
// land in a resolved cell (one array load); the rest verify a short
// candidate list with exact haversine distances. Exact distance ties are
// delegated to the tree so the winner matches the oracle bit for bit.
func (r *Resolver) Resolve(p geo.Point) int64 {
	if r.degenerate {
		// The band check below rejects NaN for grid-backed resolvers; the
		// tree fallback needs the same guard to honour the contract.
		if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
			return -1
		}
		return r.resolveTree(p)
	}
	if !(p.Lat >= r.minLat && p.Lat <= r.maxLat && p.Lon >= r.minLon && p.Lon <= r.maxLon) {
		// Outside the band is provably beyond the (slack-padded) radius of
		// every entry. NaN coordinates also land here, matching the
		// "no area" answer for invalid input.
		return -1
	}
	ix := int((p.Lon - r.minLon) * r.invCellLon)
	if ix >= r.nx {
		ix = r.nx - 1
	}
	iy := int((p.Lat - r.minLat) * r.invCellLat)
	if iy >= r.ny {
		iy = r.ny - 1
	}
	v := r.cells[iy*r.nx+ix]
	if v >= 0 {
		return r.ids[v]
	}
	if v == cellNoEntry {
		return -1
	}
	l := cellListBase - v
	best := int32(-1)
	bestD := math.Inf(1)
	tie := false
	for _, slot := range r.cands[r.candStart[l]:r.candStart[l+1]] {
		d := geo.Haversine(p, r.pts[slot])
		if d < bestD {
			bestD, best, tie = d, slot, false
		} else if d == bestD {
			tie = true
		}
	}
	if best < 0 || bestD > r.radius {
		return -1
	}
	if tie {
		return r.resolveTree(p)
	}
	return r.ids[best]
}

// ResolveBatch resolves whole coordinate columns in one call, writing the
// entry ID (or -1) for point i into out[i]. It is the batched-ingest entry
// point into the assignment grid: identical to calling Resolve per point,
// but without per-point call overhead across package boundaries. lats,
// lons and out must have equal length.
func (r *Resolver) ResolveBatch(lats, lons []float64, out []int64) {
	for i := range lats {
		out[i] = r.Resolve(geo.Point{Lat: lats[i], Lon: lons[i]})
	}
}

// resolveTree answers through the exact k-d tree oracle.
func (r *Resolver) resolveTree(p geo.Point) int64 {
	e, _, ok := r.tree.nearestWithin(p, r.radius)
	if !ok {
		return -1
	}
	return e.ID
}
