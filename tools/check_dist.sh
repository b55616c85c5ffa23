#!/usr/bin/env bash
# Shard-merge equivalence check: the same smoke grid two ways —
#
#   1. unsharded --jobs 1 (the byte-identity baseline),
#   2. N independent --shard k/N runs merged offline with sweep_merge,
#
# and requires the merged report byte-identical to the baseline minus the
# wall-clock-only fields. CI runs this; see docs/runner.md "Sharded sweeps".
#
# Usage: tools/check_dist.sh [BENCH] [SHARDS]
#   BENCH   sweep binary accepting --smoke --jobs --json --journal --shard
#           (default: ./build/bench/bench_fig08_num_flows)
#   SHARDS  shard count (default: 3)
set -euo pipefail

BENCH=${1:-./build/bench/bench_fig08_num_flows}
SHARDS=${2:-3}
MERGE=${MERGE:-./build/tools/sweep_merge}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

strip_volatile() { grep -vE '"(wall_ms|cpu_ms|speedup|threads)"' "$1"; }

# 1. Unsharded serial baseline.
"$BENCH" --smoke --jobs 1 --json "$TMP/base.json" > /dev/null
strip_volatile "$TMP/base.json" > "$TMP/base.stable"

# 2. N independent shard runs (journal carriers, so the merge also
#    exercises journal recovery) merged into one report.
for k in $(seq 0 $((SHARDS - 1))); do
  "$BENCH" --smoke --shard "$k/$SHARDS" \
           --journal "$TMP/shard$k.journal" > /dev/null
done
"$MERGE" --out "$TMP/merged.json" "$TMP"/shard*.journal
strip_volatile "$TMP/merged.json" > "$TMP/merged.stable"
diff "$TMP/base.stable" "$TMP/merged.stable"

echo "check_dist OK: $SHARDS shards merge byte-identical to the unsharded run"
