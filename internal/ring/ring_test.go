package ring

import (
	"fmt"
	"testing"
)

// TestSlotOfPinned pins the slot mapping: the SplitMix64 finalizer's
// top bits, so each slot is a contiguous user-hash range. A change here
// silently reshuffles every spool record and shard store.
func TestSlotOfPinned(t *testing.T) {
	pinned := map[int64]int{
		0:       0,
		1:       froz(1),
		42:      froz(42),
		-7:      froz(-7),
		1 << 40: froz(1 << 40),
	}
	for id, want := range pinned {
		if got := SlotOf(id); got != want {
			t.Errorf("SlotOf(%d) = %d, want %d", id, got, want)
		}
	}
	// Mix is the PR 5 partitioner finalizer: pin one known image.
	if got := mix(0); got != 0 {
		t.Errorf("mix(0) = %#x, want 0", got)
	}
	if got := mix(1); got != 0x5692161d100b05e5 {
		t.Errorf("mix(1) = %#x, want 0x5692161d100b05e5", got)
	}
}

// froz recomputes the slot from first principles so the pinned table
// stays honest about the top-bits rule.
func froz(id int64) int { return int(hashUser(id) >> 60) }

func TestSlotRangeCoversHash(t *testing.T) {
	for _, id := range []int64{0, 1, 2, 99, -5, 123456789, 1 << 50} {
		k := SlotOf(id)
		lo, hi := SlotRange(k)
		h := hashUser(id)
		if h < lo || h > hi {
			t.Fatalf("user %d: hash %#x outside SlotRange(%d) = [%#x, %#x]", id, h, k, lo, hi)
		}
	}
	if lo, _ := SlotRange(0); lo != 0 {
		t.Errorf("SlotRange(0) lo = %#x, want 0", lo)
	}
	if _, hi := SlotRange(Slots - 1); hi != ^uint64(0) {
		t.Errorf("SlotRange(%d) hi = %#x, want max", Slots-1, hi)
	}
}

// TestSlotDistribution checks users spread evenly across slots: dense
// sequential ids must land within 15% of uniform.
func TestSlotDistribution(t *testing.T) {
	const users = 160000
	var counts [Slots]int
	for id := int64(0); id < users; id++ {
		counts[SlotOf(id)]++
	}
	want := float64(users) / Slots
	for k, c := range counts {
		if dev := (float64(c) - want) / want; dev > 0.15 || dev < -0.15 {
			t.Errorf("slot %d holds %d users (%.1f%% off uniform)", k, c, dev*100)
		}
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%03d", i)
	}
	return out
}

// TestPlacementPure: placement must be a pure function of the ring
// configuration — rebuilding from the same names yields the same
// version and identical replica sets.
func TestPlacementPure(t *testing.T) {
	a, err := New(names(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(names(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version() != b.Version() {
		t.Fatalf("same config, different versions: %#x vs %#x", a.Version(), b.Version())
	}
	for k := 0; k < Slots; k++ {
		ra, rb := a.Replicas(k), b.Replicas(k)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("slot %d placed differently: %v vs %v", k, ra, rb)
		}
	}
	c, err := New(names(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() == a.Version() {
		t.Fatal("replication change did not change the version")
	}
}

// TestPlacementPinned pins Version and every slot's replica set for the
// positional member names a coordinator gives its shards. A change here
// silently reshuffles every shard store on restart.
func TestPlacementPinned(t *testing.T) {
	for _, tc := range []struct {
		members  int
		version  uint64
		replicas string
	}{
		{2, 0xf4c03f62a6c78916, "[[1 0] [0 1] [0 1] [0 1] [0 1] [0 1] [1 0] [1 0] [1 0] [0 1] [1 0] [0 1] [0 1] [1 0] [0 1] [1 0]]"},
		// The chaos smoke's configuration.
		{3, 0xe18b8e0b75542dbd, "[[1 0] [0 2] [0 1] [0 1] [0 1] [2 0] [2 1] [2 1] [1 0] [0 1] [1 0] [0 1] [0 1] [1 0] [0 1] [1 2]]"},
		{4, 0x158256c3e0e296b3, "[[1 3] [3 0] [0 1] [3 0] [0 1] [2 3] [2 3] [2 1] [1 0] [3 0] [1 0] [0 1] [0 1] [3 1] [0 1] [1 3]]"},
	} {
		ns := make([]string, tc.members)
		for i := range ns {
			ns[i] = fmt.Sprintf("member-%03d", i)
		}
		g, err := New(ns, 2)
		if err != nil {
			t.Fatal(err)
		}
		if g.Version() != tc.version {
			t.Errorf("%d members: Version() = %016x, want %016x", tc.members, g.Version(), tc.version)
		}
		var reps [Slots][]int
		for k := range reps {
			reps[k] = g.Replicas(k)
		}
		if got := fmt.Sprint(reps); got != tc.replicas {
			t.Errorf("%d members: replica sets %s, want %s", tc.members, got, tc.replicas)
		}
	}
}

func TestReplicaSets(t *testing.T) {
	for _, tc := range []struct{ n, r, want int }{
		{1, 1, 1}, {1, 3, 1}, {3, 2, 2}, {3, 5, 3}, {5, 3, 3},
	} {
		g, err := New(names(tc.n), tc.r)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]int, tc.n)
		for k := 0; k < Slots; k++ {
			reps := g.Replicas(k)
			if len(reps) != tc.want {
				t.Fatalf("n=%d r=%d slot %d: %d replicas, want %d", tc.n, tc.r, k, len(reps), tc.want)
			}
			seen := map[int]bool{}
			for _, m := range reps {
				if seen[m] {
					t.Fatalf("n=%d r=%d slot %d: duplicate replica %d", tc.n, tc.r, k, m)
				}
				seen[m] = true
				covered[m]++
			}
		}
		// Every member must carry some load in these small deterministic
		// configurations.
		for m, c := range covered {
			if c == 0 {
				t.Errorf("n=%d r=%d: member %d owns no slots", tc.n, tc.r, m)
			}
		}
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("New(nil) succeeded")
	}
	if _, err := New([]string{"a", "a"}, 1); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := New([]string{"a"}, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := New([]string{"a", ""}, 1); err == nil {
		t.Error("empty member name accepted")
	}
}
