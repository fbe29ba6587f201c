#!/usr/bin/env bash
# End-to-end live-service smoke (CI's e2e-smoke job; also runs locally):
# boot mobserve in live mode against an empty store, ingest a generated
# NDJSON batch through POST /v1/ingest, assert that /v1/population and
# /v1/flows return non-empty results, and that repeat queries are served
# from the snapshot cache with zero store scans — the bucket ring, not
# the segment files, answers everything.
#
# With --restart (CI's e2e-restart job): the server runs with a durable
# snapshot directory. After the ingest-and-query pass, one snapshot is
# committed through POST /v1/snapshot and the server is killed with
# SIGKILL — no drain, no warning. The restarted server must hydrate
# from the snapshot files alone: /healthz proves zero store scans and a
# recovery that restored every bucket with no full rescan and no tail
# replay, the snapshot directory holds at most one file per day group,
# and the /v1 answers are byte-identical to the pre-crash ones
# (DESIGN.md §11).
set -euo pipefail
cd "$(dirname "$0")/.."

RESTART=0
[ "${1:-}" = "--restart" ] && RESTART=1

WORK=$(mktemp -d)
PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
SERVER_PID=""
# The server drains on SIGTERM (flushing a final snapshot in restart
# mode), so wait for it before removing the workdir under the flush.
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/mobserve" ./cmd/mobserve
go build -o "$WORK/mobgen" ./cmd/mobgen

start_server() {
  local flags=()
  [ "$RESTART" = 1 ] && flags=(-snapshot-dir "$WORK/snaps")
  "$WORK/mobserve" -db "$WORK/store" -addr "127.0.0.1:$PORT" -live -bucket 1h \
    ${flags[@]+"${flags[@]}"} >>"$WORK/server.log" 2>&1 &
  SERVER_PID=$!
}

wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "smoke: server did not come up"; cat "$WORK/server.log"; exit 1
}

start_server
wait_up

"$WORK/mobgen" -users 500 -ndjson >"$WORK/batch.ndjson" 2>/dev/null

jsonget() { python3 -c 'import json,sys; d=json.load(sys.stdin)
for k in sys.argv[1].split("."): d=d[k]
print(d)' "$1"; }

# strip_cached drops the "cached" metadata before byte comparison: it
# says whether this serving recomputed, not what the answer is.
strip_cached() { python3 -c 'import json,sys
d=json.load(sys.stdin); d.pop("cached",None)
json.dump(d,sys.stdout,indent=2,sort_keys=True)'; }

# mval pulls one series value from a /metrics scrape; the series is named
# as exposed, labels included.
mval() { awk -v n="$2" '$1 == n { print $2; exit }' "$1"; }

curl -fsS "$BASE/metrics" >"$WORK/metrics-before.txt"
grep -q '^# TYPE geomob_ingest_records_total counter' "$WORK/metrics-before.txt" \
  || { echo "smoke: /metrics missing typed ingest counter"; exit 1; }

INGESTED=$(curl -fsS -X POST --data-binary @"$WORK/batch.ndjson" "$BASE/v1/ingest" | jsonget ingested)
echo "smoke: ingested $INGESTED records"
[ "$INGESTED" -gt 0 ] || { echo "smoke: nothing ingested"; exit 1; }

SCANS0=$(curl -fsS "$BASE/healthz" | jsonget scans)

curl -fsS "$BASE/v1/population?scale=national" >"$WORK/pop1.json"
POP_USERS=$(jsonget twitter_users <"$WORK/pop1.json" | python3 -c 'import ast,sys; print(sum(ast.literal_eval(sys.stdin.read())))')
POP_CACHED=$(jsonget cached <"$WORK/pop1.json")
echo "smoke: population users=$POP_USERS cached=$POP_CACHED"
python3 -c "import sys; sys.exit(0 if float('$POP_USERS') > 0 else 1)" || { echo "smoke: empty population"; exit 1; }
[ "$POP_CACHED" = "False" ] || { echo "smoke: first population query claimed cached"; exit 1; }

curl -fsS "$BASE/v1/flows?scale=national" >"$WORK/flows1.json"
FLOW_TOTAL=$(jsonget total <"$WORK/flows1.json")
echo "smoke: flows total=$FLOW_TOTAL"
python3 -c "import sys; sys.exit(0 if float('$FLOW_TOTAL') > 0 else 1)" || { echo "smoke: empty flows"; exit 1; }

# Repeat queries: cached, and the store was never rescanned — not by the
# first queries (the bucket fold answered) nor by the repeats.
[ "$(curl -fsS "$BASE/v1/population?scale=national" | jsonget cached)" = "True" ] || { echo "smoke: repeat population not cached"; exit 1; }
[ "$(curl -fsS "$BASE/v1/flows?scale=national" | jsonget cached)" = "True" ] || { echo "smoke: repeat flows not cached"; exit 1; }
SCANS1=$(curl -fsS "$BASE/healthz" | jsonget scans)
[ "$SCANS0" = "$SCANS1" ] || { echo "smoke: /v1 queries scanned the store ($SCANS0 -> $SCANS1)"; exit 1; }

# /metrics moved with the traffic: the ingest counter advanced by the
# batch, the query latency histogram has per-endpoint buckets, and the
# cached repeats registered as cache hits (DESIGN.md §12).
curl -fsS "$BASE/metrics" >"$WORK/metrics-after.txt"
ING_M0=$(mval "$WORK/metrics-before.txt" geomob_ingest_records_total)
ING_M1=$(mval "$WORK/metrics-after.txt" geomob_ingest_records_total)
[ "$((ING_M1 - ING_M0))" -ge "$INGESTED" ] \
  || { echo "smoke: geomob_ingest_records_total moved $ING_M0 -> $ING_M1, want +$INGESTED"; exit 1; }
grep -q 'geomob_query_duration_seconds_bucket{endpoint="/v1/population"' "$WORK/metrics-after.txt" \
  || { echo "smoke: no query duration buckets for /v1/population"; exit 1; }
HITS0=$(mval "$WORK/metrics-before.txt" geomob_cache_hits_total)
HITS1=$(mval "$WORK/metrics-after.txt" geomob_cache_hits_total)
[ "$HITS1" -gt "$HITS0" ] \
  || { echo "smoke: geomob_cache_hits_total did not move ($HITS0 -> $HITS1)"; exit 1; }
echo "smoke: metrics moved (ingest +$((ING_M1 - ING_M0)), cache hits $HITS0 -> $HITS1)"

# ?explain=1 carries the introspection block and is observably
# side-effect-free: the explain'd response minus the block matches a
# plain serving, plain responses before and after it are byte-identical,
# and the store is never scanned (DESIGN.md §13).
strip_explain() { python3 -c 'import json,sys
d=json.load(sys.stdin); d.pop("cached",None); d.pop("explain",None)
json.dump(d,sys.stdout,indent=2,sort_keys=True)'; }

SCANS_E0=$(curl -fsS "$BASE/healthz" | jsonget scans)
curl -fsS "$BASE/v1/population?scale=national" >"$WORK/pop-plain1.raw"
curl -fsS "$BASE/v1/population?scale=national&explain=1" >"$WORK/pop-explain.json"
curl -fsS "$BASE/v1/population?scale=national" >"$WORK/pop-plain2.raw"

COV_BUCKETS=$(jsonget explain.coverage.buckets <"$WORK/pop-explain.json")
echo "smoke: explain coverage buckets=$COV_BUCKETS"
[ "$COV_BUCKETS" -gt 0 ] || { echo "smoke: explain reports no bucket coverage"; exit 1; }
[ "$(jsonget explain.cache.hit <"$WORK/pop-explain.json")" = "True" ] \
  || { echo "smoke: explain'd warm repeat not a cache hit"; exit 1; }
TID=$(jsonget explain.trace_id <"$WORK/pop-explain.json")
[ -n "$TID" ] || { echo "smoke: explain lacks trace_id"; exit 1; }

cmp -s "$WORK/pop-plain1.raw" "$WORK/pop-plain2.raw" \
  || { echo "smoke: plain response changed across an explain'd request"; exit 1; }
strip_cached <"$WORK/pop-plain1.raw" >"$WORK/pop-plain-stripped.json"
strip_explain <"$WORK/pop-explain.json" >"$WORK/pop-explain-stripped.json"
if ! cmp -s "$WORK/pop-plain-stripped.json" "$WORK/pop-explain-stripped.json"; then
  echo "smoke: explain'd result diverges from the plain result:"
  diff "$WORK/pop-plain-stripped.json" "$WORK/pop-explain-stripped.json" || true
  exit 1
fi
SCANS_E1=$(curl -fsS "$BASE/healthz" | jsonget scans)
[ "$SCANS_E0" = "$SCANS_E1" ] || { echo "smoke: explain scanned the store ($SCANS_E0 -> $SCANS_E1)"; exit 1; }

# The trace ID explain reported resolves in the retained trace store —
# the README's slow-query walkthrough end to end.
[ "$(curl -fsS "$BASE/debug/traces/$TID" | jsonget endpoint)" = "/v1/population" ] \
  || { echo "smoke: explain trace_id $TID not retained in /debug/traces"; exit 1; }
echo "smoke: explain OK (side-effect-free, coverage=$COV_BUCKETS buckets, trace $TID retained)"

if [ "$RESTART" = 0 ]; then
  echo "smoke: OK (cached repeats, zero scans: $SCANS1)"
  exit 0
fi

# ---- restart mode: snapshot, SIGKILL, recover from the files alone ----
strip_cached <"$WORK/pop1.json" >"$WORK/pop-before.json"
strip_cached <"$WORK/flows1.json" >"$WORK/flows-before.json"
curl -fsS "$BASE/v1/stats" | strip_cached >"$WORK/stats-before.json"

SNAP_BUCKETS=$(curl -fsS -X POST "$BASE/v1/snapshot" | jsonget buckets)
echo "smoke: snapshot committed ($SNAP_BUCKETS buckets)"
[ "$SNAP_BUCKETS" -gt 0 ] || { echo "smoke: snapshot committed no buckets"; exit 1; }

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "smoke: server killed with SIGKILL"

start_server
wait_up

curl -fsS "$BASE/healthz" >"$WORK/health.json"
SCANS=$(jsonget scans <"$WORK/health.json")
RESTORED=$(jsonget recovery.restored <"$WORK/health.json")
RESCAN=$(jsonget recovery.full_rescan <"$WORK/health.json")
TAIL=$(jsonget recovery.tail_records <"$WORK/health.json")
echo "smoke: restart recovery restored=$RESTORED full_rescan=$RESCAN tail_records=$TAIL scans=$SCANS"
SNAP_B=$(jsonget snapshot.buckets <"$WORK/health.json")
SNAP_BYTES=$(jsonget snapshot.bytes <"$WORK/health.json")
SNAP_AGE=$(jsonget snapshot.age_seconds <"$WORK/health.json")
echo "smoke: healthz snapshot buckets=$SNAP_B bytes=$SNAP_BYTES age=${SNAP_AGE}s"
[ "$SNAP_B" -gt 0 ] && [ "$SNAP_BYTES" -gt 0 ] || { echo "smoke: healthz snapshot block empty"; exit 1; }
python3 -c "import sys; sys.exit(0 if float('$SNAP_AGE') >= 0 else 1)" || { echo "smoke: bad snapshot age"; exit 1; }
jsonget live.rollups <"$WORK/health.json" >/dev/null || { echo "smoke: healthz live block lacks rollup tiers"; exit 1; }
[ "$RESTORED" -gt 0 ] || { echo "smoke: restart restored no buckets"; exit 1; }
[ "$RESCAN" = "False" ] || { echo "smoke: restart fell back to a full rescan"; exit 1; }
[ "$TAIL" = "0" ] || { echo "smoke: restart replayed a tail after a covering snapshot"; exit 1; }
[ "$SCANS" = "0" ] || { echo "smoke: restart scanned the store $SCANS times, want 0"; exit 1; }

# The snapshot is one file per day group — a day holding records, or the
# first day of a 30-day rollup group, which homes that group's merge —
# plus the manifest, and costs about what the store does per tweet.
python3 - "$WORK/batch.ndjson" "$WORK/snaps" "$WORK/store" "$SNAP_BYTES" <<'PY' || exit 1
import json, os, sys
batch, snaps, store, snap_bytes = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
days = {json.loads(line)["ts"] // 86_400_000 for line in open(batch) if line.strip()}
groups = days | {d // 30 * 30 for d in days}
names = os.listdir(snaps)
files = [n for n in names if n.endswith(".gmsnap")]
if sorted(set(names) - set(files)) != ["SNAPSHOT.json"] or len(files) > len(groups):
    sys.exit(f"smoke: snapshot dir holds {len(files)} .gmsnap files for {len(groups)} day groups, and {sorted(set(names) - set(files))}")
store_bytes = sum(os.path.getsize(os.path.join(store, n)) for n in os.listdir(store))
tweets = sum(1 for line in open(batch) if line.strip())
print(f"smoke: snapshot {len(files)} files for {len(groups)} day groups, "
      f"{snap_bytes / tweets:.1f} B/tweet beside the store's {store_bytes / tweets:.1f} B/tweet")
PY

# The restarted process accounts for its own boot: every phase of the
# boot clock is a geomob_boot_seconds series, the recover phase took
# time and is the same number /healthz reports, and the boot line in the
# log carries the breakdown.
curl -fsS "$BASE/metrics" >"$WORK/metrics-boot.txt"
for phase in store_open shape recover listen; do
  [ -n "$(mval "$WORK/metrics-boot.txt" "geomob_boot_seconds{phase=\"$phase\"}")" ] \
    || { echo "smoke: /metrics lacks geomob_boot_seconds for phase $phase"; exit 1; }
done
BOOT_RECOVER=$(mval "$WORK/metrics-boot.txt" 'geomob_boot_seconds{phase="recover"}')
RECOVER_S=$(jsonget recovery.seconds <"$WORK/health.json")
python3 -c "import sys; sys.exit(0 if float('$BOOT_RECOVER') > 0 and float('$RECOVER_S') > 0 else 1)" \
  || { echo "smoke: boot recover phase not positive (metrics $BOOT_RECOVER, healthz $RECOVER_S)"; exit 1; }
grep -q 'live aggregation on: .*(boot: store_open .*shape .*recover ' "$WORK/server.log" \
  || { echo "smoke: boot line lacks the phase breakdown"; cat "$WORK/server.log"; exit 1; }
echo "smoke: boot phases $(grep -o '(boot: [^)]*)' "$WORK/server.log" | tail -1), recovery.seconds=$RECOVER_S"

for pair in "v1/population?scale=national:pop" "v1/flows?scale=national:flows" "v1/stats:stats"; do
  ep=${pair%:*}; name=${pair#*:}
  curl -fsS "$BASE/$ep" | strip_cached >"$WORK/$name-after.json"
  if ! cmp -s "$WORK/$name-before.json" "$WORK/$name-after.json"; then
    echo "smoke: /$ep diverged across the crash restart:"
    diff "$WORK/$name-before.json" "$WORK/$name-after.json" || true
    exit 1
  fi
  echo "smoke: /$ep byte-identical across restart"
done

SCANS=$(curl -fsS "$BASE/healthz" | jsonget scans)
[ "$SCANS" = "0" ] || { echo "smoke: post-restart /v1 queries scanned the store"; exit 1; }

echo "smoke: restart OK (snapshot recovery, zero scans, identical answers)"
