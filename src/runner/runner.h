// Parallel experiment runner: executes a batch of self-contained simulation
// jobs across N worker threads.
//
// Sharding is deterministic in the only sense that matters: results land in
// the result vector at their job's submission index, and every job's RNG
// stream is fixed by its own seed, so the collected RunReport is bit-identical
// for any thread count (1 == 2 == 8 == hardware_concurrency). Workers pull
// the next unclaimed job index from a shared atomic counter (work stealing
// degenerates to this for a known-up-front job vector).
#pragma once

#include <string>
#include <vector>

#include "runner/job.h"
#include "runner/shard.h"

namespace pert::runner {

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Live per-job progress lines on stderr.
  bool progress = true;
  /// Batch label for progress lines and RunReport::name.
  std::string name = "experiments";
  /// When non-empty, every completed JobResult is appended to this crash-safe
  /// journal (one checksummed JSONL record, fsync'd) as it finishes — see
  /// runner/journal.h and docs/runner.md "Crash safety & resume".
  std::string journal_path;
  /// Replay an existing journal before running: recovered ok cells are
  /// placed directly into the report (bit-identical to re-running them,
  /// because every cell is a pure function of its seed) and only missing or
  /// non-ok cells execute. Requires journal_path. A journal written for a
  /// different sweep (name, job count, or any key/seed differs) is rejected
  /// with std::runtime_error rather than silently mixed in.
  bool resume = false;
  /// Deterministic grid slice (--shard k/n): only cells whose global index i
  /// satisfies i % count == index execute; everything else — seeds, journal
  /// record bytes, report cell order — is unchanged, so the union of all n
  /// shards is byte-identical to the unsharded run. Progress totals, the
  /// report's job count, and the journal identity all describe the slice.
  ShardSpec shard;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions opts = {});

  /// Executes the batch and returns one result per job, in submission order.
  /// Each job body runs once. A job that throws is reported as failed with
  /// the exception message (and a diagnostics snapshot for watchdog aborts);
  /// it never takes down the batch. threads==1 runs the jobs in order on the
  /// calling thread (exact serial semantics, no thread is spawned).
  RunReport run(const std::vector<Job>& jobs);

  unsigned threads() const { return opts_.threads; }

 private:
  RunnerOptions opts_;
};

/// Resolves a requested thread count: 0 -> hardware_concurrency (min 1).
unsigned resolve_threads(unsigned requested);

/// RunReport::status for `results`: "ok" when every result is ok, "failed"
/// when none is, "partial" otherwise.
std::string batch_status(const std::vector<JobResult>& results);

}  // namespace pert::runner
