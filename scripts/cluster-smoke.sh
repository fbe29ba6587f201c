#!/usr/bin/env bash
# Cluster end-to-end smoke (CI's e2e-cluster job; also runs locally):
# boot shard nodes + 1 coordinator with the real mobserve binary, plus a
# single-node live mobserve as the reference. Ingest the same NDJSON
# corpus into both deployments through their public /v1/ingest, then
# assert that /v1/population and /v1/flows answer byte-for-byte
# identically — the scatter-gather exactness contract (DESIGN.md §8) at
# the HTTP surface — and that the coordinator reports healthy shards and
# cached repeats.
#
# With --chaos (CI's e2e-chaos job): 3 shard nodes, -replication 2 and a
# durable WAL spool. Half the corpus goes in, then one shard is killed
# with SIGKILL mid-ingest of the second half. The ingest must still be
# acknowledged (durable in the spool), queries must still answer
# byte-identically off the surviving replicas, and after the shard
# restarts over the same store the coordinator must drain its backlog
# and report healthy — with the answers still byte-identical. Zero
# acknowledged records lost, exactness preserved (DESIGN.md §10).
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS=0
[ "${1:-}" = "--chaos" ] && CHAOS=1

WORK=$(mktemp -d)
BASE_PORT="${CLUSTER_SMOKE_PORT:-18180}"
P_SHARD0=$BASE_PORT; P_SHARD1=$((BASE_PORT+1)); P_SHARD2=$((BASE_PORT+2))
P_COORD=$((BASE_PORT+3)); P_SINGLE=$((BASE_PORT+4))
PIDS=()
# The nodes drain on SIGTERM (flushing a final snapshot), so wait for
# them before removing the workdir out from under the flush.
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/mobserve" ./cmd/mobserve
go build -o "$WORK/mobgen" ./cmd/mobgen

start_shard() { # port dbdir logname — chaos shards get a snapshot dir
  local flags=()
  [ "$CHAOS" = 1 ] && flags=(-snapshot-dir "$2-snap")
  "$WORK/mobserve" -cluster-shard -db "$2" -addr "127.0.0.1:$1" \
    ${flags[@]+"${flags[@]}"} >>"$WORK/$3.log" 2>&1 &
  PIDS+=($!)
  eval "PID_$3=$!"
}

wait_up() {
  local port=$1 name=$2
  for _ in $(seq 1 150); do
    if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "cluster-smoke: $name did not come up"; cat "$WORK/$name.log"; exit 1
}

jsonget() { python3 -c 'import json,sys; d=json.load(sys.stdin)
for k in sys.argv[1].split("."): d=d[k]
print(d)' "$1"; }

# strip_cached drops the "cached" snapshot metadata before comparison —
# it says whether this serving recomputed, not what the answer is, and
# the two deployments legitimately warm their caches at different times.
strip_cached() { python3 -c 'import json,sys
d=json.load(sys.stdin); d.pop("cached",None)
json.dump(d,sys.stdout,indent=2,sort_keys=True)'; }

# mval pulls one (possibly labelled) series value from a scrape.
mval() { awk -v n="$2" '$0 !~ /^#/ && index($0, n) == 1 { print $NF; exit }' "$1"; }

compare_endpoints() { # label
  for ep in "v1/population?scale=national" "v1/flows?scale=national" "v1/stats" "v1/population?scale=metro" \
    "v1/population?scale=state&radius=30000" "v1/flows?scale=national&radius=30000"; do
    curl -fsS "http://127.0.0.1:$P_COORD/$ep" | strip_cached >"$WORK/cluster.json"
    curl -fsS "http://127.0.0.1:$P_SINGLE/$ep" | strip_cached >"$WORK/single.json"
    if ! cmp -s "$WORK/cluster.json" "$WORK/single.json"; then
      echo "cluster-smoke: /$ep diverges between cluster and single node ($1):"
      diff "$WORK/cluster.json" "$WORK/single.json" || true
      exit 1
    fi
    echo "cluster-smoke: /$ep byte-identical ($1)"
  done
}

# wait_drained: poll /healthz until every probe-reachable shard has zero
# pending spooled rows (a down member keeps its backlog, by design).
wait_drained() {
  for _ in $(seq 1 300); do
    if curl -fsS "http://127.0.0.1:$P_COORD/healthz" | python3 -c '
import json,sys
h=json.load(sys.stdin)
ok=all(s["pending"]==0 for s in h["shards"] if s["ok"])
sys.exit(0 if ok else 1)'; then return 0; fi
    sleep 0.2
  done
  echo "cluster-smoke: live shards never drained"; curl -fsS "http://127.0.0.1:$P_COORD/healthz" || true; exit 1
}

if [ "$CHAOS" = 0 ]; then
  # ---- plain mode: 2 shards, R=1, no spool directory ----
  start_shard "$P_SHARD0" "$WORK/shard0" shard0
  start_shard "$P_SHARD1" "$WORK/shard1" shard1
  "$WORK/mobserve" -cluster-coordinator "http://127.0.0.1:$P_SHARD0,http://127.0.0.1:$P_SHARD1" \
    -addr "127.0.0.1:$P_COORD" >"$WORK/coord.log" 2>&1 &
  PIDS+=($!)
  "$WORK/mobserve" -db "$WORK/single" -addr "127.0.0.1:$P_SINGLE" >"$WORK/single.log" 2>&1 &
  PIDS+=($!)
  wait_up "$P_SHARD0" shard0
  wait_up "$P_SHARD1" shard1
  wait_up "$P_COORD" coord
  wait_up "$P_SINGLE" single

  "$WORK/mobgen" -users 400 -ndjson >"$WORK/batch.ndjson" 2>/dev/null

  curl -fsS "http://127.0.0.1:$P_COORD/metrics" >"$WORK/coord-metrics-before.txt"

  # The coordinator splits the corpus across the shards; the single node
  # keeps it whole.
  N_CLUSTER=$(curl -fsS -X POST --data-binary @"$WORK/batch.ndjson" "http://127.0.0.1:$P_COORD/v1/ingest" | jsonget ingested)
  N_SINGLE=$(curl -fsS -X POST --data-binary @"$WORK/batch.ndjson" "http://127.0.0.1:$P_SINGLE/v1/ingest" | jsonget ingested)
  echo "cluster-smoke: ingested $N_CLUSTER (cluster) / $N_SINGLE (single)"
  [ "$N_CLUSTER" = "$N_SINGLE" ] && [ "$N_CLUSTER" -gt 0 ] || { echo "cluster-smoke: ingest mismatch"; exit 1; }

  # Both shards must actually hold records — the ring spread the users.
  for port in "$P_SHARD0" "$P_SHARD1"; do
    HELD=$(curl -fsS "http://127.0.0.1:$port/shard/v1/health" | jsonget shard.tweets)
    echo "cluster-smoke: shard :$port holds $HELD records"
    [ "$HELD" -gt 0 ] || { echo "cluster-smoke: a shard holds no records"; exit 1; }
  done

  wait_drained
  compare_endpoints "2 shards"

  # Warm repeat is cached and the coordinator reports healthy shards.
  [ "$(curl -fsS "http://127.0.0.1:$P_COORD/v1/population?scale=national" | jsonget cached)" = "True" ] \
    || { echo "cluster-smoke: repeat not cached"; exit 1; }
  STATUS=$(curl -fsS "http://127.0.0.1:$P_COORD/healthz" | jsonget status)
  [ "$STATUS" = "ok" ] || { echo "cluster-smoke: coordinator health is $STATUS"; exit 1; }

  # Coordinator and shard /metrics moved with the traffic: the rows the
  # coordinator accepted, the per-node lane deliveries, the per-stage
  # query histogram, and a shard's fold counter (DESIGN.md §12).
  curl -fsS "http://127.0.0.1:$P_COORD/metrics" >"$WORK/coord-metrics-after.txt"
  ROWS0=$(mval "$WORK/coord-metrics-before.txt" geomob_cluster_ingested_rows_total)
  ROWS1=$(mval "$WORK/coord-metrics-after.txt" geomob_cluster_ingested_rows_total)
  [ "$((ROWS1 - ROWS0))" -ge "$N_CLUSTER" ] \
    || { echo "cluster-smoke: geomob_cluster_ingested_rows_total moved $ROWS0 -> $ROWS1, want +$N_CLUSTER"; exit 1; }
  LANE=$(mval "$WORK/coord-metrics-after.txt" 'geomob_lane_delivered_rows_total{node="member-000"}')
  [ -n "$LANE" ] && [ "$LANE" -gt 0 ] \
    || { echo "cluster-smoke: lane delivery series missing or zero"; exit 1; }
  grep -q 'geomob_query_stage_seconds_bucket{stage="scatter"' "$WORK/coord-metrics-after.txt" \
    || { echo "cluster-smoke: no scatter stage histogram on the coordinator"; exit 1; }
  FOLDS=$(curl -fsS "http://127.0.0.1:$P_SHARD0/metrics" | awk '$1 == "geomob_shard_folds_total" { print $2 }')
  [ -n "$FOLDS" ] && [ "$FOLDS" -gt 0 ] \
    || { echo "cluster-smoke: shard0 served no folds per its /metrics"; exit 1; }
  echo "cluster-smoke: metrics moved (rows +$((ROWS1 - ROWS0)), lane member-000 $LANE, shard0 folds $FOLDS)"

  # /metrics/cluster federates both members' expositions: every member
  # reports up, and node-labelled shard series from both shards appear
  # in one valid scrape (DESIGN.md §13).
  curl -fsS "http://127.0.0.1:$P_COORD/metrics/cluster" >"$WORK/fed-metrics.txt"
  for node in member-000 member-001; do
    UP=$(mval "$WORK/fed-metrics.txt" "geomob_member_up{node=\"$node\"}")
    [ "$UP" = "1" ] || { echo "cluster-smoke: federated $node not up (got '$UP')"; exit 1; }
    grep -q "geomob_shard_folds_total{node=\"$node\"}" "$WORK/fed-metrics.txt" \
      || { echo "cluster-smoke: no node-labelled fold counter for $node on /metrics/cluster"; exit 1; }
  done
  echo "cluster-smoke: /metrics/cluster federates both members with node labels"

  echo "cluster-smoke: OK"
  exit 0
fi

# ---- chaos mode: 3 shards, R=2, durable WAL spool, SIGKILL mid-ingest ----
start_shard "$P_SHARD0" "$WORK/shard0" shard0
start_shard "$P_SHARD1" "$WORK/shard1" shard1
start_shard "$P_SHARD2" "$WORK/shard2" shard2
"$WORK/mobserve" -cluster-coordinator \
  "http://127.0.0.1:$P_SHARD0,http://127.0.0.1:$P_SHARD1,http://127.0.0.1:$P_SHARD2" \
  -replication 2 -wal-dir "$WORK/wal" \
  -addr "127.0.0.1:$P_COORD" >"$WORK/coord.log" 2>&1 &
PIDS+=($!)
"$WORK/mobserve" -db "$WORK/single" -addr "127.0.0.1:$P_SINGLE" >"$WORK/single.log" 2>&1 &
PIDS+=($!)
wait_up "$P_SHARD0" shard0
wait_up "$P_SHARD1" shard1
wait_up "$P_SHARD2" shard2
wait_up "$P_COORD" coord
wait_up "$P_SINGLE" single

"$WORK/mobgen" -users 600 -ndjson >"$WORK/batch.ndjson" 2>/dev/null
TOTAL=$(wc -l <"$WORK/batch.ndjson")
HALF=$((TOTAL / 2))
head -n "$HALF" "$WORK/batch.ndjson" >"$WORK/half1.ndjson"
tail -n +"$((HALF + 1))" "$WORK/batch.ndjson" >"$WORK/half2.ndjson"

N1=$(curl -fsS -X POST --data-binary @"$WORK/half1.ndjson" "http://127.0.0.1:$P_COORD/v1/ingest" | jsonget ingested)
echo "cluster-smoke: chaos: first half ingested ($N1 records)"

# Commit a durable snapshot on the shard about to die: its restart must
# come back through snapshot restore, not a full store rescan.
wait_drained
SNAP1=$(curl -fsS -X POST "http://127.0.0.1:$P_SHARD1/v1/snapshot" | jsonget buckets)
echo "cluster-smoke: chaos: shard1 snapshotted ($SNAP1 buckets)"
[ "$SNAP1" -gt 0 ] || { echo "cluster-smoke: chaos: shard1 snapshot empty"; exit 1; }
# A shard's snapshot is one directory, as a single node's is: the
# manifest plus at most one file per day group of the records it holds.
python3 - "$WORK/half1.ndjson" "$WORK/shard1-snap" <<'PY' || exit 1
import json, os, sys
batch, snaps = sys.argv[1], sys.argv[2]
days = {json.loads(line)["ts"] // 86_400_000 for line in open(batch) if line.strip()}
groups = days | {d // 30 * 30 for d in days}
names = os.listdir(snaps)
files = [n for n in names if n.endswith(".gmsnap")]
if sorted(set(names) - set(files)) != ["SNAPSHOT.json"] or len(files) > len(groups):
    sys.exit(f"cluster-smoke: chaos: shard1 snapshot dir holds {len(files)} .gmsnap files for {len(groups)} day groups, and {sorted(set(names) - set(files))}")
print(f"cluster-smoke: chaos: shard1 snapshot {len(files)} files for {len(groups)} day groups")
PY

# SIGKILL shard1 while the second half is in flight. The spool is the
# acknowledgement point, so the ingest must still be fully accepted.
curl -fsS -X POST --data-binary @"$WORK/half2.ndjson" "http://127.0.0.1:$P_COORD/v1/ingest" >"$WORK/ing2.json" &
ING_PID=$!
sleep 0.1
kill -9 "$PID_shard1"
echo "cluster-smoke: chaos: shard1 killed with SIGKILL mid-ingest"
wait "$ING_PID" || { echo "cluster-smoke: chaos: second-half ingest failed"; cat "$WORK/coord.log"; exit 1; }
N2=$(jsonget ingested <"$WORK/ing2.json")
[ "$((N1 + N2))" = "$TOTAL" ] || { echo "cluster-smoke: chaos: acked $N1+$N2, want $TOTAL"; exit 1; }
echo "cluster-smoke: chaos: second half acknowledged despite the crash ($N2 records)"

N_SINGLE=$(curl -fsS -X POST --data-binary @"$WORK/batch.ndjson" "http://127.0.0.1:$P_SINGLE/v1/ingest" | jsonget ingested)
[ "$N_SINGLE" = "$TOTAL" ] || { echo "cluster-smoke: single ingest mismatch"; exit 1; }

# With one member down the coordinator must report degraded — and still
# answer byte-identically off the surviving replicas once they drain.
wait_drained
STATUS=$(curl -fsS "http://127.0.0.1:$P_COORD/healthz" | jsonget status)
[ "$STATUS" = "degraded" ] || { echo "cluster-smoke: chaos: health is $STATUS with a member down, want degraded"; exit 1; }
compare_endpoints "shard1 down"

# Federation degrades, never errors: with shard1 SIGKILLed the scrape
# still answers 200 with a valid exposition, the dead member marked
# geomob_member_up 0 and the survivors' series still present.
curl -fsS "http://127.0.0.1:$P_COORD/metrics/cluster" >"$WORK/fed-degraded.txt"
[ "$(mval "$WORK/fed-degraded.txt" 'geomob_member_up{node="member-001"}')" = "0" ] \
  || { echo "cluster-smoke: chaos: killed member not marked down on /metrics/cluster"; exit 1; }
for node in member-000 member-002; do
  [ "$(mval "$WORK/fed-degraded.txt" "geomob_member_up{node=\"$node\"}")" = "1" ] \
    || { echo "cluster-smoke: chaos: surviving $node not up on /metrics/cluster"; exit 1; }
done
grep -q 'geomob_shard_folds_total{node="member-000"}' "$WORK/fed-degraded.txt" \
  || { echo "cluster-smoke: chaos: surviving member series missing from degraded federation"; exit 1; }
echo "cluster-smoke: chaos: /metrics/cluster degraded gracefully (member-001 down)"

# Restart shard1 over the same store, snapshot dir and port. The boot
# must hydrate from the snapshot files (restored buckets, no full
# rescan — a tail replay of post-snapshot segments is fine); then the
# coordinator's lanes replay its spooled backlog (deduplicated by the
# delivery high-water mark), pending drains to zero, and health
# returns to ok.
start_shard "$P_SHARD1" "$WORK/shard1" shard1
wait_up "$P_SHARD1" shard1
curl -fsS "http://127.0.0.1:$P_SHARD1/shard/v1/health" >"$WORK/shard1-health.json"
S1_RESTORED=$(jsonget shard.recovery.restored <"$WORK/shard1-health.json")
S1_RESCAN=$(jsonget shard.recovery.full_rescan <"$WORK/shard1-health.json")
echo "cluster-smoke: chaos: shard1 recovery restored=$S1_RESTORED full_rescan=$S1_RESCAN"
[ "$S1_RESTORED" -gt 0 ] || { echo "cluster-smoke: chaos: shard1 restored no buckets from snapshots"; exit 1; }
[ "$S1_RESCAN" = "False" ] || { echo "cluster-smoke: chaos: shard1 fell back to a full rescan"; exit 1; }
wait_drained
for _ in $(seq 1 150); do
  STATUS=$(curl -fsS "http://127.0.0.1:$P_COORD/healthz" | jsonget status)
  [ "$STATUS" = "ok" ] && break
  sleep 0.2
done
[ "$STATUS" = "ok" ] || { echo "cluster-smoke: chaos: health stuck at $STATUS after recovery"; curl -fsS "http://127.0.0.1:$P_COORD/healthz"; exit 1; }
echo "cluster-smoke: chaos: shard1 recovered, backlog drained"
compare_endpoints "after recovery"

echo "cluster-smoke: chaos OK"
