// Package cluster scales the live pipeline horizontally and makes it
// fault-tolerant: a consistent-hash ring places user-hash slots on
// shard members with replication factor R, a spooled delivery layer
// makes ingest acknowledgement durable and replayable, and queries
// scatter-gather over any one live replica per slot (DESIGN.md §8,
// §10).
//
// The design rests on the invariant PRs 1 and 4 proved: user-disjoint
// observer state merges bit-identically to a cold serial pass. Slot
// placement (internal/ring) keeps every user's trajectory whole inside
// one placement slot, and every replica of a slot applies the identical
// slot substream, so
//
//   - every per-user quantity (waiting time, flow transition, radius of
//     gyration, distinct cells) is computed entirely within one slot with
//     the single-sourced mobility ops the streaming extractor uses;
//   - the additive aggregates (tweet counts, per-area unique-user counts,
//     flow matrices, span bounds) sum or union exactly across slots;
//   - the per-user Table I series re-interleave by ascending user id
//     when the coordinator merges the slot partials — and it does not
//     matter which replica served which slot, because replicas of a
//     slot are bit-identical by construction.
//
// The pieces:
//
//   - internal/ring: the versioned consistent-hash placement rule — a
//     pure function of (ring version, user id) every node agrees on;
//   - Shard: one member behind a uniform interface — LocalShard runs
//     in-process with one bucket ring per slot, HTTPShard talks to a
//     remote member over the internal /shard/v1 API served by Node;
//   - spool (internal/wal behind CoordinatorOptions.WALDir): the ingest
//     acknowledgement point — frames are acked to the client once
//     spooled, delivered to each replica by per-member lanes with
//     retry and backoff, and truncated once every replica acked;
//   - Coordinator: routes ingest into per-slot frames, replicates them
//     via the spool and lanes, scatters queries over one live current
//     replica per slot with failover, merges the partials through
//     core.FoldedPass / core.AssembleFolded, and snapshot-caches
//     results keyed on the served topology plus the replicas'
//     bucket-coverage keys — so a replicated cluster answer is
//     bit-identical to a single-node Study.Execute rescan
//     (property-tested, including under single-member crashes) and
//     warm repeats do zero shard folds.
//
// Membership is fixed when the coordinator starts. A member is replaced
// by restarting it over its own store, after which its lane replays
// whatever the spool still owes it.
//
// Partitioner remains as the PR 5 modulo-placement rule for the
// in-process -partitions mode's store layout; ring placement supersedes
// it for cluster routing.
package cluster

import "fmt"

// Partitioner assigns users to partitions by a stable hash of the user
// id. Every record of one user — and hence every consecutive-tweet
// transition the mobility analyses depend on — lands on the same shard,
// which is the entire exactness argument of the scatter-gather merge.
// The hash is a fixed function of the user id alone (no seed, no
// process state), so any node, in any process, on any day, routes a
// user identically.
type Partitioner struct {
	n int
}

// NewPartitioner builds a partitioner over n partitions.
func NewPartitioner(n int) (Partitioner, error) {
	if n < 1 {
		return Partitioner{}, fmt.Errorf("cluster: partition count must be positive, got %d", n)
	}
	return Partitioner{n: n}, nil
}

// Partitions returns the partition count.
func (p Partitioner) Partitions() int { return p.n }

// Partition maps a user id to its owning partition in [0, Partitions()).
// User ids are assigned densely by upstream systems, so the id is mixed
// through the SplitMix64 finalizer before the modulus — adjacent ids
// spread uniformly instead of striping.
func (p Partitioner) Partition(userID int64) int {
	z := uint64(userID)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(p.n))
}
