#!/usr/bin/env bash
# End-to-end smoke test for the graceful-degradation operating-mode
# protocol, run by CI and usable locally: experiment E24 must pass, a
# ccr-sim run with -mode under best-effort overload must enter the mode
# protocol (Degraded then Critical, with admissions gated) while keeping the
# hard class clean, be byte-identical across two runs with the same seed,
# leave the snapshot mode-free when -mode is absent, reject malformed specs
# as usage errors, and a -mode sweep must populate its mode CSV columns.
#
# Usage: mode-smoke.sh [path-to-ccr-sim] [path-to-ccr-sweep] [path-to-ccr-bench]
set -euo pipefail

SIM=${1:-./ccr-sim}
SWEEP=${2:-./ccr-sweep}
BENCH=${3:-./ccr-bench}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# E24 is the reference experiment: a full Normal→Degraded→Critical→Normal
# hysteresis cycle over a bridged mesh with staggered crashes, zero hard
# misses, bounded bridge queues, reproducible bit-for-bit.
"$BENCH" -id E24 -seed 1 >/dev/null

MODE='window=128,dmiss=0.02,cmiss=0.5,dback=64,cback=256,cool=2'
CHURN='rate=200000,hold=1500,seed=5'

# run_sim captures JSON output and the exit code, which may be 0 (clean) or
# 3 (a deadline missed — best-effort may degrade under overload). Any other
# code is a failure.
run_sim() { # out-file -> prints exit code
  local rc=0
  "$SIM" -nodes 16 -rt 0.6 -be 1.5 -slots 20000 -seed 1 \
    -churn "$CHURN" -mode "$MODE" -json > "$1" || rc=$?
  case "$rc" in
    0|3) echo "$rc" ;;
    *) echo "mode-smoke: ccr-sim exited $rc, want 0 or 3" >&2; exit 1 ;;
  esac
}

# Determinism: same seed, same mode spec => byte-identical result and exit
# code across two runs — the mode trajectory included.
RC_A=$(run_sim "$TMP/a.json")
RC_B=$(run_sim "$TMP/b.json")
cmp "$TMP/a.json" "$TMP/b.json"
[ "$RC_A" = "$RC_B" ] || { echo "mode-smoke: exit codes differ: $RC_A vs $RC_B" >&2; exit 1; }

# Mode invariants: the sustained best-effort backlog must drive the ring
# through Degraded into Critical, Degraded mode must gate admissions, and
# the hard class must come through untouched regardless.
jq -e '
  .snapshot.mode == "critical" and
  (.snapshot.mode_transitions // 0) >= 2 and
  (.snapshot.mode_degraded_entries // 0) >= 1 and
  (.snapshot.mode_critical_entries // 0) >= 1 and
  (.snapshot.mode_gated // 0) > 0 and
  (.snapshot.missed_hard // 0) == 0 and
  (.snapshot.evicted_hard // 0) == 0 and
  (.snapshot.invariant_violations // 0) == 0 and
  (.snapshot.wire_errors // 0) == 0 and
  .snapshot.messages_delivered > 0
' "$TMP/a.json" >/dev/null

# Without -mode the protocol is off: the snapshot must carry no mode fields
# at all (the golden-trace byte-identity tests cover the stronger claim that
# the engine's behaviour is unchanged).
"$SIM" -nodes 16 -rt 0.6 -be 1.5 -slots 2000 -seed 1 -json > "$TMP/off.json"
jq -e '.snapshot | has("mode") | not' "$TMP/off.json" >/dev/null

# A malformed mode spec must be a usage error (exit 2), never a crash.
RC=0
"$SIM" -nodes 8 -slots 100 -mode 'window=nope' >/dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || { echo "mode-smoke: malformed spec exited $RC, want 2" >&2; exit 1; }

# A small -mode sweep must run clean and populate the mode columns:
# mode_transitions present and non-negative, no point errors.
"$SWEEP" -protocols ccr-edf -nodes 16 -loads 0.6 -slots 10000 \
  -churn "$CHURN" -mode "$MODE" -csv "$TMP/sweep.csv" >/dev/null
head -1 "$TMP/sweep.csv" | grep -q 'mode_transitions,mode_shed_be,bridge_dropped,bridge_overflowed'
awk -F, 'NR==1{for(i=1;i<=NF;i++)c[$i]=i;next}
NR==2 {
  if ($c["mode_transitions"] == "" || $c["mode_transitions"]+0 < 0 || $c["error"] != "") exit 1
}' "$TMP/sweep.csv"

echo "mode-smoke: ok"
