// Job / result / report value types for the experiment runner.
//
// A Job is one self-contained simulation cell: it owns (via its closure)
// everything it needs — config, scheduler, topology, RNG stream — and shares
// no mutable state with other jobs, so any number of them can run on any
// worker threads in any order without changing the results. The runner
// collects one JobResult per job, in submission order, into a RunReport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/dumbbell.h"
#include "obs/metrics.h"
#include "runner/shard.h"

namespace pert::runner {

/// What a job's body hands back to the runner.
struct JobOutput {
  exp::WindowMetrics metrics;
  std::uint64_t events = 0;  ///< scheduler events dispatched by the job's sim
  /// Snapshot of the job's metric registry (empty unless the job enabled
  /// cfg.obs.metrics and copied d.obs().registry() here).
  obs::MetricRegistry registry;
};

/// How a job ended. Everything except kOk carries an error message; watchdog
/// and scheduler aborts also carry a diagnostics snapshot.
enum class JobStatus : std::uint8_t {
  kOk,
  kFailed,              ///< exception, stall, runaway event loop
  kInvariantViolation,  ///< simulation watchdog caught broken state
};

std::string_view to_string(JobStatus s);
/// Inverse of to_string; unknown strings map to kFailed, so a "timeout"
/// record written by an older build re-runs on resume.
JobStatus job_status_from_string(std::string_view s);

struct Job {
  /// Stable unique id, e.g. "fig08_num_flows/flows=10/PERT". Keys feed the
  /// seed-derivation rule and name the job in progress/JSON output.
  std::string key;
  /// RNG seed the job body should use (normally derive_seed(base, key)).
  std::uint64_t seed = 0;
  /// Free-form labels exported flat into the JSON result object
  /// (conventionally "x" and "scheme" for sweep cells).
  std::map<std::string, std::string> tags;
  /// The job body. Runs on an arbitrary worker thread; must be
  /// self-contained (build the sim inside, touch nothing shared).
  std::function<JobOutput(const Job&)> run;
};

struct JobResult {
  std::string key;
  std::uint64_t seed = 0;
  /// Global cell index in the full (unsharded) grid: the job's submission
  /// index. Stable across sharding, so per-shard results can be merged back
  /// into full-grid submission order (runner/merge.h, tools/sweep_merge).
  std::uint64_t cell = 0;
  std::map<std::string, std::string> tags;
  exp::WindowMetrics metrics;
  std::uint64_t events = 0;
  obs::MetricRegistry registry;  ///< per-job metric snapshot (may be empty)
  double wall_ms = 0;  ///< wall-clock time of this job's body
  bool ok = false;     ///< convenience mirror of status == kOk
  JobStatus status = JobStatus::kFailed;
  std::string error;        ///< exception message when !ok
  std::string diagnostics;  ///< watchdog snapshot (invariant/stall)
};

struct RunReport {
  std::string name;        ///< batch label, e.g. the bench name
  unsigned threads = 1;    ///< worker threads actually used
  /// Which slice of the grid this report covers ({0,1} = the whole grid).
  /// Serialized as a "shard" block only when active, so unsharded reports
  /// keep their pre-shard byte format.
  ShardSpec shard;
  std::uint64_t grid = 0;        ///< base grid hash (shard-independent)
  std::uint64_t grid_cells = 0;  ///< cells in the full (unsharded) grid
  double wall_ms = 0;      ///< wall-clock time of the whole batch
  double cpu_ms = 0;       ///< sum of per-job wall times
  /// "ok" (all jobs ok), "partial" (some failed), or "failed" (all failed).
  std::string status = "ok";
  /// Cells recovered from a journal instead of executed (resume runs only).
  /// Deliberately not serialized: a resumed report must stay byte-identical
  /// to an uninterrupted one.
  std::size_t resumed = 0;
  std::vector<JobResult> results;  ///< submission order, independent of
                                   ///< completion order

  /// Parallel speedup actually realised: serial-equivalent time / wall time.
  double speedup() const { return wall_ms > 0 ? cpu_ms / wall_ms : 0.0; }

  /// Results looked up by global grid cell: entry i is cell i's result, or
  /// nullptr when this report does not hold it (a --shard slice carries only
  /// its own cells). Sized by grid_cells; the pointers alias `results`.
  std::vector<const JobResult*> by_cell() const {
    std::vector<const JobResult*> out(grid_cells, nullptr);
    for (const JobResult& r : results)
      if (r.cell < out.size()) out[r.cell] = &r;
    return out;
  }
};

}  // namespace pert::runner
