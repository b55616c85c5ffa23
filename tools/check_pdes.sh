#!/usr/bin/env bash
# Parallel-engine determinism check, on the fig08 and fig11 smoke grids.
#
# 1. The sharded engine at 1 worker thread (the oracle: identical event
#    streams, executed inline) and at 4 worker threads must export reports
#    that are byte-identical minus the wall-clock-only fields. Any
#    scheduling race, lost channel message, or order-dependent tie-break in
#    the conservative engine shows up here as a diff, not as a subtly wrong
#    figure.
# 2. The one-shard network (--sim-threads 0: everything on shard 0, run
#    without the engine) must agree with the sharded layout at 1 worker
#    thread: the same stdout, and the same report once the wall-clock fields
#    and "events" are removed. "events" must be exactly 30 higher in every
#    cell on one shard: those are the watchdog polls, which sharded runs
#    skip. Retiring the one-shard layout (ROADMAP item 2) relies on this.
#
# Covers both sharded topologies: the dumbbell (fig08 smoke; router shards +
# fixed endpoint shards) and the multi-bottleneck chain (fig11 smoke; one
# shard per router cloud). CI runs this on every push, and also under TSan
# (see .github/workflows/ci.yml) so the byte-diff is backed by a data-race
# check of the same code paths.
#
# Usage: tools/check_pdes.sh [BUILD_DIR]
#   BUILD_DIR  directory with bench binaries (default: ./build)
set -euo pipefail

BUILD=${1:-./build}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Watchdog polls per smoke cell that a sharded run skips.
POLLS=30

strip_volatile() { grep -vE '"(wall_ms|cpu_ms|speedup|threads)"' "$1"; }
events() { grep -oE '"events": [0-9]+' "$1" | grep -oE '[0-9]+$'; }

run() { # name bench sim_threads
  local out="$TMP/$1-t$3"
  "$2" --smoke --jobs 1 --sim-threads "$3" --json "$out.json" > "$out.txt"
  strip_volatile "$out.json" > "$out.stable"
  grep -v '"events"' "$out.stable" > "$out.no-events"
}

check() { # name bench
  local name=$1 bench=$2
  local t="$TMP/$name-t"
  run "$name" "$bench" 0
  run "$name" "$bench" 1
  run "$name" "$bench" 4

  echo "== $name: sim_threads=1 vs sim_threads=4 =="
  if ! diff -u "${t}1.stable" "${t}4.stable"; then
    echo "FAIL: $name report differs between 1 and 4 engine workers" >&2
    exit 1
  fi
  echo "OK: $name reports byte-identical across engine worker counts"

  echo "== $name: one shard (sim_threads=0) vs sharded (sim_threads=1) =="
  if ! diff -u "${t}0.txt" "${t}1.txt"; then
    echo "FAIL: $name stdout differs between one shard and the sharded layout" >&2
    exit 1
  fi
  if ! diff -u "${t}0.no-events" "${t}1.no-events"; then
    echo "FAIL: $name report differs between one shard and the sharded layout" >&2
    exit 1
  fi
  if ! paste <(events "${t}0.json") <(events "${t}1.json") |
      awk -v name="$name" -v polls="$POLLS" '
        $1 - $2 != polls {
          printf "FAIL: %s result %d: %s events on one shard, %s sharded " \
                 "(want exactly %d more)\n", name, NR - 1, $1, $2, polls \
                 > "/dev/stderr"
          bad = 1
        }
        END { exit bad || NR == 0 }'; then
    exit 1
  fi
  echo "OK: $name one shard agrees with the sharded layout ($POLLS more events per cell)"
}

check fig08 "$BUILD/bench/bench_fig08_num_flows"
check fig11 "$BUILD/bench/bench_fig11_multibottleneck"

echo "PASS: parallel engine is thread-count-invariant and agrees with one shard"
