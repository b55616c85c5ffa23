#!/usr/bin/env bash
# Kill-resume equivalence check: SIGKILL a journaled sweep at ~50% of its
# cells, resume it from the journal, and require the resumed report to be
# byte-identical (minus the wall-clock-only fields) to an uninterrupted run,
# its stdout tables identical too (so tables built outside the report show
# up), plus exactly one journal record per cell afterwards. CI runs this; see
# docs/runner.md "Crash safety & resume".
#
# Usage: tools/check_resume.sh [BENCH] [JOBS]
#   BENCH  sweep binary accepting --smoke --jobs --json --journal --resume
#          (default: ./build/bench/bench_fig08_num_flows)
#   JOBS   worker threads for the crashed and resumed runs (default: 4).
#          The reference run is serial, so the diff also re-proves the
#          any-thread-count determinism contract.
set -euo pipefail

BENCH=${1:-./build/bench/bench_fig08_num_flows}
JOBS=${2:-4}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

strip_volatile() { grep -vE '"(wall_ms|cpu_ms|speedup|threads)"' "$1"; }
# Completed-cell records are framed "PERTJ1 R <crc32> <payload>" lines.
records() {
  if [ -f "$1" ]; then grep -c '^PERTJ1 R ' "$1" || true; else echo 0; fi
}

# 1. Uninterrupted serial reference run (journaled too, so the grid size can
#    be read off instead of hard-coding the smoke grid here).
"$BENCH" --smoke --jobs 1 --json "$TMP/clean.json" \
         --journal "$TMP/clean.journal" > "$TMP/clean.out"
TOTAL=$(records "$TMP/clean.journal")
if [ "$TOTAL" -lt 2 ]; then
  echo "check_resume: reference journal has only $TOTAL records" >&2
  exit 1
fi
HALF=$((TOTAL / 2))

# 2. Crashed run: poll the journal and SIGKILL the sweep once ~50% of the
#    cells have been durably recorded. SIGKILL (not TERM) on purpose — the
#    process gets no chance to flush or clean up, which is exactly the crash
#    the journal must survive; a torn final record is quarantined on resume.
"$BENCH" --smoke --jobs "$JOBS" --json "$TMP/crashed.json" \
         --journal "$TMP/run.journal" > /dev/null 2>&1 &
PID=$!
for _ in $(seq 1 6000); do
  kill -0 "$PID" 2> /dev/null || break
  if [ "$(records "$TMP/run.journal")" -ge "$HALF" ]; then
    kill -KILL "$PID" 2> /dev/null || true
    break
  fi
  sleep 0.01
done
wait "$PID" 2> /dev/null || true
KEPT=$(records "$TMP/run.journal")
echo "check_resume: killed sweep at $KEPT/$TOTAL journal records"

# 3. Resume from the journal and compare against the clean reference.
"$BENCH" --smoke --jobs "$JOBS" --json "$TMP/resumed.json" \
         --journal "$TMP/run.journal" --resume > "$TMP/resumed.out"
strip_volatile "$TMP/clean.json" > "$TMP/clean.stable"
strip_volatile "$TMP/resumed.json" > "$TMP/resumed.stable"
diff "$TMP/clean.stable" "$TMP/resumed.stable"
diff "$TMP/clean.out" "$TMP/resumed.out"

AFTER=$(records "$TMP/run.journal")
if [ "$AFTER" -ne "$TOTAL" ]; then
  echo "check_resume: journal holds $AFTER records after resume," \
       "expected exactly $TOTAL" >&2
  exit 1
fi
echo "check_resume OK: resumed report and tables identical to uninterrupted run" \
     "($TOTAL cells, killed at $KEPT, jobs=$JOBS)"
