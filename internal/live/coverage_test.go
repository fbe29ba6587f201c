package live

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"geomob/internal/tweet"
	"geomob/internal/tweetdb"
)

// memberWalkKey is the coverage key as it was computed before rollup
// stamps: the bucket width plus the (index, revision) pair of every live
// bucket the window touches, one map lookup each.
func memberWalkKey(a *Aggregator, lo, hi int64) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "w=%d;", a.width)
	var kb [16]byte
	for _, idx := range a.rangeLocked(lo, hi) {
		binary.LittleEndian.PutUint64(kb[:8], uint64(idx))
		binary.LittleEndian.PutUint64(kb[8:], a.buckets[idx].rev)
		h.Write(kb[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// groupState is one rollup group's stamp beside the member-walk
// fingerprint its cached merge used to be validated under.
type groupState struct {
	stamp uint64
	walk  string
}

// ringState is what one ring state answers: per window the stamped key
// and the member-walk key, and per rollup group its stamp and member
// walk.
type ringState struct {
	keys, walks []string
	groups      map[[2]int64]groupState
}

func captureRingState(a *Aggregator, windows [][2]int64) ringState {
	st := ringState{groups: map[[2]int64]groupState{}}
	for _, w := range windows {
		st.keys = append(st.keys, a.coverageKey(w[0], w[1]))
		st.walks = append(st.walks, memberWalkKey(a, w[0], w[1]))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.tiers {
		members := map[int64][]int64{}
		for _, idx := range a.idxs {
			g := floorDiv(idx, t.factor)
			members[g] = append(members[g], idx)
		}
		for g, idxs := range members {
			h := fnv.New64a()
			for _, idx := range idxs {
				fmt.Fprintf(h, "%d:%d;", idx, a.buckets[idx].rev)
			}
			st.groups[[2]int64{t.factor, g}] = groupState{stamp: t.revs[g], walk: fmt.Sprintf("%x", h.Sum64())}
		}
	}
	return st
}

// TestCoverageKeyStampsMatchMemberWalk: over random schedules — in-order
// appends at the edge, late appends into closed day and month groups
// and a restart through Recover that injects the snapshot's buckets —
// and random windows — aligned,
// unaligned, unbounded on either side — two states of one ring give the
// same coverage key exactly when the member walk gives the same
// fingerprint, and a rollup group keeps its stamp exactly while its
// members keep their revisions.
func TestCoverageKeyStampsMatchMemberWalk(t *testing.T) {
	const width = 6 * hourMS // rollup tiers of 4 (a day) and 120 (a month) buckets
	cities := [][2]float64{sydneyPt, melbourne}
	sh, err := NewShape(Options{BucketWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		// max=0 names the unbounded ring; the prefix keeps the subtest
		// ids stable for tools that track them.
		t.Run(fmt.Sprintf("max=0/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			store, err := tweetdb.Open(filepath.Join(dir, "store"))
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := OpenSnapshotStore(filepath.Join(dir, "snap"))
			if err != nil {
				t.Fatal(err)
			}
			agg := sh.NewAggregator()
			ing, err := NewIngestor(store, agg, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			nextID := int64(1)
			records := func(idx int64, n int) []tweet.Tweet {
				out := make([]tweet.Tweet, n)
				for i := range out {
					out[i] = tw(nextID, 1+rng.Int63n(12), idx*width+rng.Int63n(width), cities[rng.Intn(2)])
					nextID++
				}
				return out
			}
			ingest := func(recs []tweet.Tweet) {
				if err := ing.IngestBatch(tweet.BatchOf(recs)); err != nil {
					t.Fatal(err)
				}
				if err := ing.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			base := int64(240 + rng.Intn(240)) // month groups start at multiples of 120
			edge := base
			windows := [][2]int64{{math.MinInt64, math.MaxInt64}}
			for len(windows) < 20 {
				a := base + rng.Int63n(200) - 20
				b := a + 1 + rng.Int63n(150)
				lo, hi := a*width, b*width // aligned
				if rng.Intn(2) == 0 {
					lo += rng.Int63n(width)
					hi -= rng.Int63n(width)
				}
				switch rng.Intn(4) {
				case 0:
					lo = math.MinInt64
				case 1:
					hi = math.MaxInt64
				}
				windows = append(windows, [2]int64{lo, hi})
			}
			// late picks a bucket between the first and the edge.
			late := func() int64 { return base + rng.Int63n(edge-base+1) }
			var history []ringState
			check := func(step int, op string) {
				cur := captureRingState(agg, windows)
				for si, prev := range history {
					for w := range windows {
						if (cur.keys[w] == prev.keys[w]) != (cur.walks[w] == prev.walks[w]) {
							t.Fatalf("step %d (%s) vs state %d, window %v: stamped keys equal=%v, member walks equal=%v",
								step, op, si, windows[w], cur.keys[w] == prev.keys[w], cur.walks[w] == prev.walks[w])
						}
					}
					for g, gs := range cur.groups {
						if ps, ok := prev.groups[g]; ok && (gs.stamp == ps.stamp) != (gs.walk == ps.walk) {
							t.Fatalf("step %d (%s) vs state %d, group %v: stamps equal=%v, member walks equal=%v",
								step, op, si, g, gs.stamp == ps.stamp, gs.walk == ps.walk)
						}
					}
				}
				history = append(history, cur)
			}
			check(0, "empty")
			for step := 1; step <= 150; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 5:
					op = "edge append"
					edge += rng.Int63n(4)
					ingest(records(edge, 1+rng.Intn(3)))
				case r < 8:
					op = "late append"
					ingest(records(late(), 1+rng.Intn(2)))
				case r < 9:
					op = "recover"
					if _, err := ing.Snapshot(snaps); err != nil {
						t.Fatal(err)
					}
					agg = sh.NewAggregator()
					if _, err := Recover(agg, store, snaps, RecoverOpts{}); err != nil {
						t.Fatal(err)
					}
					if ing, err = NewIngestor(store, agg, 1<<20); err != nil {
						t.Fatal(err)
					}
					// A new ring issues its own revisions: compare it
					// with its own states only.
					history = nil
				default:
					op = "no-op"
				}
				check(step, op)
			}
		})
	}
}
