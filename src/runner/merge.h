// Offline shard merge: combine N per-shard journals and/or RunReport JSONs
// into one full-grid report.
//
// Every input declares which slice of which grid it covers — reports via
// their "shard" block, journals via their shard-aware header — and every
// record carries its global cell index, so the merge is a validated
// re-assembly, not a guess:
//
//   - all inputs must agree on the sweep name, the shard count n, the total
//     cell count, and the shard-independent grid hash ("mismatched grid
//     hashes" is a hard error — two sweeps of different grids cannot merge);
//   - a record whose cell does not satisfy cell % n == shard_index is an
//     overlapping/foreign cell: hard error (the shard partition is being
//     violated, something is mislabeled);
//   - two inputs covering the SAME shard (a shard's journal plus its report,
//     or a re-run) deduplicate last-writer-wins in argument order — later
//     inputs supersede earlier ones, mirroring the journal's own rule;
//   - cells covered by no input are missing: hard error by default, or a
//     status:"partial" report when allow_partial is set. A torn/quarantined
//     shard journal therefore degrades to exactly one of those documented
//     outcomes, never a silently bad merge.
//
// When every cell is present the merged report is byte-identical (minus the
// volatile wall-clock fields) to the single-process `--jobs 1` report for
// the same grid: results are re-ordered into full-grid submission order and
// re-serialized through the same writer, and the batch-level metric
// registry is re-merged from the per-cell registries in that order — the
// exact-merge property of obs::MetricRegistry makes this reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/job.h"

namespace pert::runner {

struct MergeOptions {
  /// Accept missing cells and emit a status:"partial" report instead of
  /// failing. Overlap/identity errors are never downgraded.
  bool allow_partial = false;
};

struct MergeOutcome {
  RunReport report;
  std::uint64_t total_cells = 0;  ///< full grid size
  std::uint64_t missing = 0;      ///< cells no input covered
  std::uint64_t superseded = 0;   ///< records replaced by a later input
  std::vector<std::string> notes; ///< human-readable merge log lines
  bool complete() const { return missing == 0; }
};

/// Merges the shard inputs at `paths` (each a RunReport JSON or a PERTJ1
/// journal, auto-detected by content). Throws std::runtime_error with a
/// documented message on any validation failure (see file comment).
MergeOutcome merge_shards(const std::vector<std::string>& paths,
                          const MergeOptions& opts = {});

}  // namespace pert::runner
