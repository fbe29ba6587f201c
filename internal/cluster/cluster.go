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
//     in-process with one bucket ring over the slots delivered to it,
//     and folds any subset of them by skipping the other slots' users;
//     HTTPShard talks to a
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
// Placement is ring slot placement everywhere, the in-process
// -partitions mode included: ring.SlotOf mixes a user id through the
// SplitMix64 finalizer and takes the top bits as one of
// ring.Slots slots, and the ring maps each slot to its replicas.
package cluster
