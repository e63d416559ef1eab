#!/usr/bin/env bash
# Crash-recovery smoke test for the ccr-served job journal, run by CI and
# usable locally: start the daemon with -journal, run one fast job to
# completion, start a long job, SIGKILL the daemon mid-run, restart it over
# the same journal, and require that
#   - the incomplete job re-runs to completion under its ORIGINAL id,
#   - resubmitting the fast scenario is a cache hit with BYTE-IDENTICAL
#     result bytes (the journal replayed the result into the cache),
#   - the restarted daemon reports ready.
#
# Usage: crash-recovery-smoke.sh [path-to-ccr-served-binary]
set -euo pipefail

BIN=${1:-./ccr-served}
ADDR=127.0.0.1:8094
BASE="http://$ADDR"
TMP=$(mktemp -d)
PID=""
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

JOURNAL="$TMP/jobs.jsonl"

start_daemon() {
  "$BIN" -addr "$ADDR" -workers 2 -journal "$JOURNAL" &
  PID=$!
  for _ in $(seq 1 50); do
    curl -fs "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "crash-smoke: daemon did not come up" >&2
  exit 1
}

start_daemon

cat > "$TMP/fast.json" <<'EOF'
{
  "nodes": 8,
  "seed": 7,
  "horizon_slots": 5000,
  "connections": [
    {"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
  ],
  "poisson": [
    {"node": 1, "mean_interarrival_slots": 12, "slots": 1, "rel_deadline_slots": 200}
  ]
}
EOF
# ~3M slots runs for several seconds at the pinned ~2µs/slot engine speed:
# long enough to SIGKILL mid-run, short enough to finish after restart.
sed 's/"horizon_slots": 5000/"horizon_slots": 3000000/; s/"seed": 7/"seed": 8/' \
  "$TMP/fast.json" > "$TMP/long.json"

# 1. Fast job to completion; keep its result bytes. Status requests
# long-poll (?wait=) and answer as soon as the job ends.
FAST_ID=$(curl -fs -XPOST --data-binary @"$TMP/fast.json" "$BASE/v1/jobs" | jq -r .id)
for _ in $(seq 1 10); do
  STATE=$(curl -fs "$BASE/v1/jobs/$FAST_ID?wait=2s" | jq -r .state)
  [ "$STATE" = done ] && break
done
[ "$STATE" = done ] || { echo "crash-smoke: fast job stuck in $STATE" >&2; exit 1; }
curl -fs "$BASE/v1/jobs/$FAST_ID/result" > "$TMP/before.json"

# 2. Long job reaches running, then the daemon dies without warning.
LONG_ID=$(curl -fs -XPOST --data-binary @"$TMP/long.json" "$BASE/v1/jobs" | jq -r .id)
for _ in $(seq 1 100); do
  STATE=$(curl -fs "$BASE/v1/jobs/$LONG_ID" | jq -r .state)
  [ "$STATE" = running ] && break
  sleep 0.1
done
[ "$STATE" = running ] || { echo "crash-smoke: long job not running ($STATE)" >&2; exit 1; }

kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# 3. Restart over the same journal.
start_daemon

# The incomplete job must re-run to completion under its original id.
STATE=queued
for _ in $(seq 1 30); do
  STATE=$(curl -fs "$BASE/v1/jobs/$LONG_ID?wait=2s" | jq -r .state)
  [ "$STATE" = done ] && break
  if [ "$STATE" = failed ] || [ "$STATE" = cancelled ] || [ "$STATE" = null ]; then
    echo "crash-smoke: recovered job $LONG_ID ended $STATE" >&2
    curl -fs "$BASE/v1/jobs/$LONG_ID" >&2 || true
    exit 1
  fi
done
[ "$STATE" = done ] || { echo "crash-smoke: recovered job stuck in $STATE" >&2; exit 1; }

# Resubmitting the fast scenario must be a replayed cache hit,
# byte-identical to the pre-crash result.
SECOND=$(curl -fs -XPOST --data-binary @"$TMP/fast.json" "$BASE/v1/jobs")
echo "$SECOND" | jq -e '.state == "done" and .cached == true' >/dev/null \
  || { echo "crash-smoke: resubmission was not a cache hit: $SECOND" >&2; exit 1; }
ID2=$(echo "$SECOND" | jq -r .id)
curl -fs "$BASE/v1/jobs/$ID2/result" > "$TMP/after.json"
cmp "$TMP/before.json" "$TMP/after.json"

# Recovery must be visible on the metrics surface, and the daemon ready.
curl -fs "$BASE/metrics" | grep -Eq '^ccr_served_recovered_jobs_total [1-9]'
curl -fs "$BASE/metrics" | grep -Eq '^ccr_served_replayed_results_total [1-9]'
curl -fs "$BASE/readyz" >/dev/null

kill -TERM "$PID"
for _ in $(seq 1 50); do
  kill -0 "$PID" 2>/dev/null || { wait "$PID" 2>/dev/null || true; echo "crash-smoke: ok"; exit 0; }
  sleep 0.2
done
echo "crash-smoke: daemon did not exit after SIGTERM" >&2
exit 1
