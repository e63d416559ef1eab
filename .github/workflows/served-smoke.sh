#!/usr/bin/env bash
# End-to-end smoke test for the ccr-served daemon, run by CI and usable
# locally: start the daemon, submit a scenario, wait for it to finish,
# resubmit and require a byte-identical cached result, check the metrics
# surface, then drain with SIGTERM.
#
# Usage: served-smoke.sh [path-to-ccr-served-binary]
set -euo pipefail

BIN=${1:-./ccr-served}
ADDR=127.0.0.1:8093
BASE="http://$ADDR"
TMP=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

"$BIN" -addr "$ADDR" -workers 2 &
PID=$!

for _ in $(seq 1 50); do
  curl -fs "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fs "$BASE/healthz" >/dev/null

cat > "$TMP/scenario.json" <<'EOF'
{
  "nodes": 8,
  "seed": 42,
  "horizon_slots": 5000,
  "connections": [
    {"src": 0, "dests": [4], "period_slots": 10, "slots": 1},
    {"src": 2, "dests": [5, 6], "period_slots": 16, "slots": 2}
  ],
  "poisson": [
    {"node": 1, "mean_interarrival_slots": 12, "slots": 1, "rel_deadline_slots": 200}
  ]
}
EOF

# Submit and wait for completion: each status request long-polls (?wait=)
# and answers as soon as the job ends; 10 of them bound the wait at 20s.
ID=$(curl -fs -XPOST --data-binary @"$TMP/scenario.json" "$BASE/v1/jobs" | jq -r .id)
STATE=queued
for _ in $(seq 1 10); do
  STATE=$(curl -fs "$BASE/v1/jobs/$ID?wait=2s" | jq -r .state)
  [ "$STATE" = done ] && break
  if [ "$STATE" = failed ] || [ "$STATE" = cancelled ]; then
    echo "smoke: job $ID ended $STATE" >&2
    curl -fs "$BASE/v1/jobs/$ID" >&2
    exit 1
  fi
done
[ "$STATE" = done ] || { echo "smoke: job $ID stuck in $STATE" >&2; exit 1; }
curl -fs "$BASE/v1/jobs/$ID/result" > "$TMP/first.json"
jq -e '.schema == 1 and (.snapshot.messages_delivered > 0)' "$TMP/first.json" >/dev/null

# Resubmitting the identical scenario must be served from the cache,
# byte-identical to the first result.
SECOND=$(curl -fs -XPOST --data-binary @"$TMP/scenario.json" "$BASE/v1/jobs")
echo "$SECOND" | jq -e '.state == "done" and .cached == true' >/dev/null
ID2=$(echo "$SECOND" | jq -r .id)
curl -fs "$BASE/v1/jobs/$ID2/result" > "$TMP/second.json"
cmp "$TMP/first.json" "$TMP/second.json"

# The cache hit must be visible on the metrics surface.
curl -fs "$BASE/metrics" | grep -Eq '^ccr_served_cache_hits_total [1-9]'

# Graceful drain: SIGTERM must stop the daemon cleanly.
kill -TERM "$PID"
for _ in $(seq 1 50); do
  kill -0 "$PID" 2>/dev/null || { wait "$PID" 2>/dev/null || true; echo "smoke: ok"; exit 0; }
  sleep 0.2
done
echo "smoke: daemon did not exit after SIGTERM" >&2
exit 1
