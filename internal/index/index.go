// Package index answers the paper's area assignment: the census area whose
// centre is nearest to a point within a search radius. A k-d tree over the
// area centres is the exact oracle, and the Resolver precomputes a grid of
// its answers for the per-tweet hot path. Both verify candidates with exact
// haversine distances, so query results are exact; the structures only
// prune.
package index

import (
	"fmt"
	"math"
	"sort"

	"geomob/internal/geo"
)

// Entry is one indexed point with an opaque identifier.
type Entry struct {
	ID int64
	P  geo.Point
}

// KDTree is a static 2-d tree over entries, built once and queried for
// nearest neighbours and radius sets. Candidates are ranked with exact
// haversine distances during the walk; subtree pruning uses provable lower
// bounds on the great-circle distance (see splitLowerBound). Queries are
// therefore exact.
type KDTree struct {
	nodes    []kdNode
	root     int32
	cosFloor float64 // minimum cosine over all entry latitudes (pruning)
}

type kdNode struct {
	e           Entry
	left, right int32
}

// newKDTree builds a balanced k-d tree over the entries. It returns an
// error for an empty input.
func newKDTree(entries []Entry) (*KDTree, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("index: kd-tree requires at least one entry")
	}
	cosFloor := 1.0
	for _, e := range entries {
		if c := math.Cos(e.P.Lat * math.Pi / 180); c < cosFloor {
			cosFloor = c
		}
	}
	t := &KDTree{
		nodes:    make([]kdNode, 0, len(entries)),
		cosFloor: cosFloor,
	}
	if t.cosFloor < 0 {
		t.cosFloor = 0
	}
	work := append([]Entry(nil), entries...)
	t.root = t.build(work, 0)
	return t, nil
}

func (t *KDTree) build(entries []Entry, depth int) int32 {
	if len(entries) == 0 {
		return -1
	}
	axis := depth % 2
	sort.Slice(entries, func(i, j int) bool {
		if axis == 0 {
			return entries[i].P.Lat < entries[j].P.Lat
		}
		return entries[i].P.Lon < entries[j].P.Lon
	})
	mid := len(entries) / 2
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{e: entries[mid]})
	left := t.build(entries[:mid], depth+1)
	right := t.build(entries[mid+1:], depth+1)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// Len returns the number of entries in the tree.
func (t *KDTree) Len() int { return len(t.nodes) }

// nearestFrame is one deferred far subtree of the iterative nearest walk,
// remembered with the provable lower bound that was valid when it was
// deferred (the bound only needs re-checking against the improved best).
type nearestFrame struct {
	node  int32
	depth int32
	bound float64 // lower bound in metres on any entry in the subtree
}

// nearestStackSize bounds the deferred-subtree stack of nearest. At most
// one frame per tree level is live at any time (frames are pushed in
// strictly increasing depth order and popped deepest-first), and the
// median-split build keeps the tree balanced, so 64 levels cover any
// conceivable entry count.
const nearestStackSize = 64

// nearest returns the entry closest to p by great-circle distance and that
// distance in metres. The walk ranks candidates with exact haversine
// distances and prunes subtrees via splitLowerBound, so the result is
// exact; the traversal is iterative over a fixed-size stack and performs
// no heap allocations.
func (t *KDTree) nearest(p geo.Point) (Entry, float64) {
	var stack [nearestStackSize]nearestFrame
	sp := 0
	best := int32(-1)
	bestDist := math.Inf(1)
	node, depth := t.root, int32(0)
	for {
		for node >= 0 {
			n := &t.nodes[node]
			if d := geo.Haversine(p, n.e.P); d < bestDist {
				bestDist = d
				best = node
			}
			axis := int(depth) & 1
			var diff float64
			if axis == 0 {
				diff = p.Lat - n.e.P.Lat
			} else {
				diff = p.Lon - n.e.P.Lon
			}
			near, far := n.left, n.right
			if diff > 0 {
				near, far = far, near
			}
			if far >= 0 {
				if lb := t.splitLowerBound(p, n.e.P, axis); lb < bestDist {
					stack[sp] = nearestFrame{node: far, depth: depth + 1, bound: lb}
					sp++
				}
			}
			node = near
			depth++
		}
		for {
			if sp == 0 {
				return t.nodes[best].e, bestDist
			}
			sp--
			if f := stack[sp]; f.bound < bestDist {
				node, depth = f.node, f.depth
				break
			}
		}
	}
}

// splitLowerBound returns a lower bound in metres on the great-circle
// distance between the query point p and any point beyond the splitting
// plane of the given node axis. For the latitude axis the bound is exact
// (meridian arc). For the longitude axis it follows from the haversine
// identity sin²(d/2R) >= cosφ₁·cosφ₂·sin²(Δλ/2) with cosφ₂ bounded below by
// the tree-wide cosine floor. Longitude splits live on a circle, not a
// line: the far half-plane in raw coordinates is an arc bounded by the
// split on one side and the ±180° seam on the other, and the seam can be
// angularly closer to p than the split is — so the usable gap is the
// minimum of the wrapped gap to the split and the gap to the seam.
func (t *KDTree) splitLowerBound(p geo.Point, split geo.Point, axis int) float64 {
	if axis == 0 {
		return math.Abs(p.Lat-split.Lat) * geo.MetersPerDegreeLat
	}
	dLon := math.Abs(p.Lon - split.Lon)
	if dLon > 180 {
		dLon = 360 - dLon
	}
	if seamGap := 180 - math.Abs(p.Lon); seamGap < dLon {
		dLon = seamGap
	}
	cosP := math.Cos(p.Lat * math.Pi / 180)
	c := cosP * t.cosFloor
	if c <= 0 {
		return 0 // cannot prune through the poles
	}
	s := math.Sqrt(c) * math.Sin(dLon*math.Pi/180/2)
	if s > 1 {
		s = 1
	}
	return 2 * geo.EarthRadius * math.Asin(s)
}

// nearestWithin returns the closest entry to p if it lies within radius
// metres; ok is false when nothing is close enough. This is the primitive
// behind the paper's "search radius ε" area assignment.
func (t *KDTree) nearestWithin(p geo.Point, radius float64) (e Entry, dist float64, ok bool) {
	e, dist = t.nearest(p)
	if dist <= radius {
		return e, dist, true
	}
	return Entry{}, 0, false
}

// Radius returns all entries within radius metres of p, ordered by
// ascending great-circle distance.
func (t *KDTree) Radius(p geo.Point, radius float64) []Entry {
	if radius < 0 {
		return nil
	}
	type hit struct {
		e Entry
		d float64
	}
	var hits []hit
	var walk func(node int32, depth int)
	walk = func(node int32, depth int) {
		if node < 0 {
			return
		}
		n := t.nodes[node]
		if d := geo.Haversine(p, n.e.P); d <= radius {
			hits = append(hits, hit{n.e, d})
		}
		axis := depth % 2
		var onLeft bool
		if axis == 0 {
			onLeft = p.Lat < n.e.P.Lat
		} else {
			onLeft = p.Lon < n.e.P.Lon
		}
		near, far := n.left, n.right
		if !onLeft {
			near, far = far, near
		}
		walk(near, depth+1)
		if t.splitLowerBound(p, n.e.P, axis) <= radius {
			walk(far, depth+1)
		}
	}
	walk(t.root, 0)
	sort.Slice(hits, func(i, j int) bool { return hits[i].d < hits[j].d })
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}
