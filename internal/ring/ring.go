// Package ring implements consistent-hash placement for the cluster
// tier (DESIGN.md §10). The keyspace is the 64-bit SplitMix64 image of
// the tweet user id, carved into a fixed number of contiguous hash ranges called slots.
// A slot is the unit of placement and replication: every user's whole
// trajectory hashes into exactly one slot, so any set of slot-level
// partials can be merged into a bit-identical study result no matter
// which replica served each slot.
//
// Members own slots through virtual nodes on a 64-bit circle. Each
// member projects a fixed number of points; a slot's replica set is the
// first R distinct members met walking clockwise from the slot's own
// point, owner first. Placement is a pure function of the ring
// configuration (member names, replication factor) — and therefore of
// the ring version, which hashes exactly that configuration — so every
// coordinator restart recomputes the same assignment without any
// coordination. Rings are immutable, and membership is fixed when the
// coordinator builds its ring.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

const (
	// Slots is the number of contiguous user-hash ranges the keyspace
	// is carved into — the granularity of placement. It is a
	// wire-level protocol constant: spool records, delivery frames, and
	// shard aggregators are all slot-addressed, so changing it
	// invalidates every spool and store layout.
	Slots = 16

	// slotShift selects the top log2(Slots) bits of the mixed hash, so
	// slot k covers the contiguous hash range [k<<60, (k+1)<<60).
	slotShift = 64 - 4

	// vnodes is the number of virtual points each member projects
	// onto the circle. With only Slots*R placements to balance the
	// exact count matters little; 64 keeps the arc lengths reasonably
	// even for small clusters.
	vnodes = 64
)

// mix applies the SplitMix64 finalizer, a bijection on uint64 that
// spreads dense user ids uniformly over the keyspace.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashUser maps a user id onto the 64-bit keyspace.
func hashUser(userID int64) uint64 { return mix(uint64(userID)) }

// SlotOf returns the slot owning userID's entire trajectory. Using the
// top bits of the mixed hash (rather than a modulo) makes each slot a
// contiguous hash range, so degraded-read errors can name the exact
// missing user-range.
func SlotOf(userID int64) int { return int(hashUser(userID) >> slotShift) }

// SlotRange returns the inclusive user-hash range [lo, hi] covered by
// slot.
func SlotRange(slot int) (lo, hi uint64) {
	lo = uint64(slot) << slotShift
	hi = lo | (1<<slotShift - 1)
	return lo, hi
}

// Ring is an immutable placement table: replica sets for every slot at
// one configuration version.
type Ring struct {
	r       int
	version uint64
	owners  [Slots][]int
}

type vpoint struct {
	h      uint64
	member int
	v      int
}

// New builds a ring over the named members with replication factor r.
// The replica set of a slot has min(r, members) distinct members.
func New(names []string, r int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("ring: need at least one member")
	}
	if r < 1 {
		return nil, fmt.Errorf("ring: replication factor %d < 1", r)
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("ring: empty member name")
		}
		if seen[name] {
			return nil, fmt.Errorf("ring: duplicate member %q", name)
		}
		seen[name] = true
	}
	g := &Ring{r: r}

	// Version hashes the exact configuration placement depends on, so
	// equal versions imply identical replica sets everywhere. Each name
	// still carries the ":false" departed flag rings once had, so the
	// version /healthz and explain report keeps its value.
	vh := fnv.New64a()
	fmt.Fprintf(vh, "r=%d;", r)
	for _, name := range names {
		fmt.Fprintf(vh, "%q:false;", name)
	}
	g.version = vh.Sum64()

	points := make([]vpoint, 0, len(names)*vnodes)
	for i, name := range names {
		nh := fnv.New64a()
		nh.Write([]byte(name))
		base := nh.Sum64()
		for v := 0; v < vnodes; v++ {
			points = append(points, vpoint{
				h:      mix(base ^ mix(uint64(v)+0x5851f42d4c957f2d)),
				member: i,
				v:      v,
			})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].h != points[b].h {
			return points[a].h < points[b].h
		}
		if points[a].member != points[b].member {
			return points[a].member < points[b].member
		}
		return points[a].v < points[b].v
	})

	want := min(r, len(names))
	for k := 0; k < Slots; k++ {
		start := sort.Search(len(points), func(i int) bool {
			return points[i].h >= slotPoint(k)
		})
		replicas := make([]int, 0, want)
		taken := make(map[int]bool, want)
		for step := 0; step < len(points) && len(replicas) < want; step++ {
			p := points[(start+step)%len(points)]
			if !taken[p.member] {
				taken[p.member] = true
				replicas = append(replicas, p.member)
			}
		}
		g.owners[k] = replicas
	}
	return g, nil
}

// slotPoint places slot k on the circle, mixed so consecutive slots do
// not cluster on one arc.
func slotPoint(k int) uint64 {
	return mix(uint64(k)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03)
}

// Version identifies this ring's configuration. Placement is a pure
// function of (Version, user id).
func (g *Ring) Version() uint64 { return g.version }

// Replication returns the configured replication factor R. Slots hold
// min(R, members) replicas.
func (g *Ring) Replication() int { return g.r }

// Replicas returns the member indexes replicating slot, owner first.
// The returned slice is shared; callers must not mutate it.
func (g *Ring) Replicas(slot int) []int { return g.owners[slot] }

// SlotsFor returns the slots whose replica set includes member node,
// in ascending slot order.
func (g *Ring) SlotsFor(node int) []int {
	var slots []int
	for k := 0; k < Slots; k++ {
		for _, m := range g.owners[k] {
			if m == node {
				slots = append(slots, k)
				break
			}
		}
	}
	return slots
}
