// Package census embeds the Australian gazetteer the paper's experiments
// are run against: the 20 most populated cities nationally, the 20 most
// populated cities in New South Wales, and the 20 most populated suburbs of
// Sydney, each with a representative centre coordinate and a census-based
// population (§III of the paper, ABS catalogue 3218.0, 2012-13 estimated
// resident population).
//
// Data provenance: the original paper reads these values from ABS census
// tables we cannot redistribute; the values embedded here are public-domain
// approximations of the same 2012-13 estimates, accurate to a few percent.
// DESIGN.md §1 records this substitution. The analysis code consumes only
// (population, coordinate) pairs, so small absolute deviations shift fitted
// constants without affecting any of the paper's qualitative results.
package census

import (
	"fmt"

	"geomob/internal/geo"
)

// Scale identifies one of the paper's three geographic scales.
type Scale int

const (
	// ScaleNational covers the 20 most populated cities in Australia.
	ScaleNational Scale = iota
	// ScaleState covers the 20 most populated cities in New South Wales.
	ScaleState
	// ScaleMetropolitan covers the 20 most populated suburbs in Sydney.
	ScaleMetropolitan
)

// String returns the scale name as used in the paper's tables.
func (s Scale) String() string {
	switch s {
	case ScaleNational:
		return "National"
	case ScaleState:
		return "State"
	case ScaleMetropolitan:
		return "Metropolitan"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// SearchRadius returns the paper's tweet-extraction search radius ε for the
// scale, in metres: 50 km national, 25 km state, 2 km metropolitan (§III).
func (s Scale) SearchRadius() float64 {
	switch s {
	case ScaleNational:
		return 50_000
	case ScaleState:
		return 25_000
	case ScaleMetropolitan:
		return 2_000
	default:
		return 0
	}
}

// Scales lists the three scales in the paper's order.
func Scales() []Scale {
	return []Scale{ScaleNational, ScaleState, ScaleMetropolitan}
}

// Area is one census region: a named population centre.
type Area struct {
	Name       string    // area name, e.g. "Sydney" or "Blacktown"
	State      string    // state or territory abbreviation
	Center     geo.Point // representative centre coordinate
	Population int       // census-based resident population
}

// RegionSet is the ordered list of areas studied at one scale.
type RegionSet struct {
	Scale Scale
	Label string
	Areas []Area
}

// national: 20 most populated significant urban areas, 2012-13 ERP.
var national = RegionSet{
	Scale: ScaleNational,
	Label: "Australia: 20 most populated cities",
	Areas: []Area{
		{"Sydney", "NSW", geo.Point{Lat: -33.8688, Lon: 151.2093}, 4293000},
		{"Melbourne", "VIC", geo.Point{Lat: -37.8136, Lon: 144.9631}, 4087000},
		{"Brisbane", "QLD", geo.Point{Lat: -27.4698, Lon: 153.0251}, 2147000},
		{"Perth", "WA", geo.Point{Lat: -31.9523, Lon: 115.8613}, 1897000},
		{"Adelaide", "SA", geo.Point{Lat: -34.9285, Lon: 138.6007}, 1277000},
		{"Gold Coast", "QLD", geo.Point{Lat: -28.0167, Lon: 153.4000}, 614000},
		{"Newcastle", "NSW", geo.Point{Lat: -32.9283, Lon: 151.7817}, 430000},
		{"Canberra", "ACT", geo.Point{Lat: -35.2809, Lon: 149.1300}, 423000},
		{"Sunshine Coast", "QLD", geo.Point{Lat: -26.6500, Lon: 153.0667}, 297000},
		{"Wollongong", "NSW", geo.Point{Lat: -34.4278, Lon: 150.8931}, 289000},
		{"Hobart", "TAS", geo.Point{Lat: -42.8821, Lon: 147.3272}, 216000},
		{"Geelong", "VIC", geo.Point{Lat: -38.1499, Lon: 144.3617}, 184000},
		{"Townsville", "QLD", geo.Point{Lat: -19.2590, Lon: 146.8169}, 178000},
		{"Cairns", "QLD", geo.Point{Lat: -16.9186, Lon: 145.7781}, 147000},
		{"Darwin", "NT", geo.Point{Lat: -12.4634, Lon: 130.8456}, 132000},
		{"Toowoomba", "QLD", geo.Point{Lat: -27.5598, Lon: 151.9507}, 113000},
		{"Ballarat", "VIC", geo.Point{Lat: -37.5622, Lon: 143.8503}, 98000},
		{"Bendigo", "VIC", geo.Point{Lat: -36.7570, Lon: 144.2794}, 91000},
		{"Albury-Wodonga", "NSW", geo.Point{Lat: -36.0737, Lon: 146.9135}, 87000},
		{"Launceston", "TAS", geo.Point{Lat: -41.4332, Lon: 147.1441}, 86000},
	},
}

// state: 20 most populated cities in New South Wales.
var state = RegionSet{
	Scale: ScaleState,
	Label: "New South Wales: 20 most populated cities",
	Areas: []Area{
		{"Sydney", "NSW", geo.Point{Lat: -33.8688, Lon: 151.2093}, 4293000},
		{"Newcastle", "NSW", geo.Point{Lat: -32.9283, Lon: 151.7817}, 430000},
		{"Wollongong", "NSW", geo.Point{Lat: -34.4278, Lon: 150.8931}, 289000},
		{"Coffs Harbour", "NSW", geo.Point{Lat: -30.2963, Lon: 153.1135}, 69000},
		{"Wagga Wagga", "NSW", geo.Point{Lat: -35.1180, Lon: 147.3598}, 55000},
		{"Albury", "NSW", geo.Point{Lat: -36.0737, Lon: 146.9135}, 51000},
		{"Tamworth", "NSW", geo.Point{Lat: -31.0833, Lon: 150.9167}, 47000},
		{"Port Macquarie", "NSW", geo.Point{Lat: -31.4333, Lon: 152.9000}, 45000},
		{"Orange", "NSW", geo.Point{Lat: -33.2833, Lon: 149.1000}, 39000},
		{"Dubbo", "NSW", geo.Point{Lat: -32.2569, Lon: 148.6011}, 38000},
		{"Queanbeyan", "NSW", geo.Point{Lat: -35.3533, Lon: 149.2342}, 37000},
		{"Bathurst", "NSW", geo.Point{Lat: -33.4193, Lon: 149.5775}, 36000},
		{"Nowra", "NSW", geo.Point{Lat: -34.8850, Lon: 150.6000}, 36000},
		{"Lismore", "NSW", geo.Point{Lat: -28.8167, Lon: 153.2833}, 28000},
		{"Taree", "NSW", geo.Point{Lat: -31.9000, Lon: 152.4500}, 26000},
		{"Armidale", "NSW", geo.Point{Lat: -30.5000, Lon: 151.6500}, 24000},
		{"Goulburn", "NSW", geo.Point{Lat: -34.7547, Lon: 149.6186}, 23000},
		{"Cessnock", "NSW", geo.Point{Lat: -32.8342, Lon: 151.3555}, 21000},
		{"Grafton", "NSW", geo.Point{Lat: -29.6833, Lon: 152.9333}, 19000},
		{"Griffith", "NSW", geo.Point{Lat: -34.2900, Lon: 146.0400}, 19000},
	},
}

// metro: 20 most populated suburbs of Sydney.
var metro = RegionSet{
	Scale: ScaleMetropolitan,
	Label: "Sydney: 20 most populated suburbs",
	Areas: []Area{
		{"Blacktown", "NSW", geo.Point{Lat: -33.7668, Lon: 150.9054}, 47000},
		{"Castle Hill", "NSW", geo.Point{Lat: -33.7333, Lon: 151.0042}, 37000},
		{"Auburn", "NSW", geo.Point{Lat: -33.8494, Lon: 151.0331}, 35000},
		{"Baulkham Hills", "NSW", geo.Point{Lat: -33.7629, Lon: 150.9928}, 34000},
		{"Bankstown", "NSW", geo.Point{Lat: -33.9171, Lon: 151.0349}, 32000},
		{"Maroubra", "NSW", geo.Point{Lat: -33.9500, Lon: 151.2370}, 30000},
		{"Randwick", "NSW", geo.Point{Lat: -33.9146, Lon: 151.2437}, 29000},
		{"Mosman", "NSW", geo.Point{Lat: -33.8284, Lon: 151.2406}, 28000},
		{"Quakers Hill", "NSW", geo.Point{Lat: -33.7344, Lon: 150.8789}, 27000},
		{"Liverpool", "NSW", geo.Point{Lat: -33.9200, Lon: 150.9230}, 27000},
		{"Merrylands", "NSW", geo.Point{Lat: -33.8372, Lon: 150.9919}, 26000},
		{"Parramatta", "NSW", geo.Point{Lat: -33.8150, Lon: 151.0011}, 25000},
		{"Marrickville", "NSW", geo.Point{Lat: -33.9111, Lon: 151.1552}, 25000},
		{"Cabramatta", "NSW", geo.Point{Lat: -33.8947, Lon: 150.9357}, 21000},
		{"Dee Why", "NSW", geo.Point{Lat: -33.7511, Lon: 151.2853}, 21000},
		{"Hornsby", "NSW", geo.Point{Lat: -33.7045, Lon: 151.0993}, 21000},
		{"Epping", "NSW", geo.Point{Lat: -33.7728, Lon: 151.0818}, 20000},
		{"Glenmore Park", "NSW", geo.Point{Lat: -33.7906, Lon: 150.6696}, 20000},
		{"Fairfield", "NSW", geo.Point{Lat: -33.8732, Lon: 150.9556}, 18000},
		{"Cronulla", "NSW", geo.Point{Lat: -34.0581, Lon: 151.1543}, 18000},
	},
}

// Gazetteer bundles the three region sets the paper studies.
type Gazetteer struct {
	sets [3]RegionSet
}

// Australia returns the embedded Australian gazetteer. The returned value
// shares the package-level data; callers must treat areas as read-only.
func Australia() *Gazetteer {
	return &Gazetteer{sets: [3]RegionSet{national, state, metro}}
}

// Regions returns the region set for the given scale.
func (g *Gazetteer) Regions(s Scale) (RegionSet, error) {
	switch s {
	case ScaleNational, ScaleState, ScaleMetropolitan:
		return g.sets[s], nil
	default:
		return RegionSet{}, fmt.Errorf("census: unknown scale %d", int(s))
	}
}

// Len returns the number of areas in the set.
func (rs RegionSet) Len() int { return len(rs.Areas) }

// Populations returns the per-area populations as float64, in set order.
func (rs RegionSet) Populations() []float64 {
	out := make([]float64, len(rs.Areas))
	for i, a := range rs.Areas {
		out[i] = float64(a.Population)
	}
	return out
}

// Index returns the position of the named area, or -1 when absent.
func (rs RegionSet) Index(name string) int {
	for i, a := range rs.Areas {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: non-empty, valid coordinates,
// positive populations, unique names, descending population order.
func (rs RegionSet) Validate() error {
	if len(rs.Areas) == 0 {
		return fmt.Errorf("census: %s region set is empty", rs.Scale)
	}
	seen := map[string]bool{}
	for i, a := range rs.Areas {
		if a.Name == "" {
			return fmt.Errorf("census: %s area %d has no name", rs.Scale, i)
		}
		if seen[a.Name] {
			return fmt.Errorf("census: %s has duplicate area %q", rs.Scale, a.Name)
		}
		seen[a.Name] = true
		if !a.Center.Valid() {
			return fmt.Errorf("census: area %q has invalid coordinates %v", a.Name, a.Center)
		}
		if !geo.AustraliaBBox.Contains(a.Center) {
			return fmt.Errorf("census: area %q lies outside the study region", a.Name)
		}
		if a.Population <= 0 {
			return fmt.Errorf("census: area %q has non-positive population %d", a.Name, a.Population)
		}
		if i > 0 && a.Population > rs.Areas[i-1].Population {
			return fmt.Errorf("census: %s not sorted by population at %q", rs.Scale, a.Name)
		}
	}
	return nil
}
