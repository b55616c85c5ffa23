// Distributed sweep worker: runs grid cells on behalf of a coordinator.
//
// The worker materializes the FULL job vector locally (exactly as an
// in-process run would, so seeds and cell indices are identical), then
// connects to the coordinator, offers the grid's identity, and executes
// whatever cells it is leased — each under the runner's standard failure
// isolation (transient retries, timeout watchdog, invariant classification,
// via runner::run_job) — streaming each finished JobResult back as it
// completes. The loop exits on `drain` (the coordinator's explicit "no work
// now or ever").
//
// Resilience (see docs/runner.md "Distributed failure modes"):
//
//   - Connecting and reconnecting retry with exponential backoff and
//     decorrelated jitter (sleep ~ uniform[base, 3·prev], capped), so a
//     worker started before its coordinator — or riding through a
//     coordinator restart or a network partition — keeps trying instead of
//     aborting on the first ECONNREFUSED. After `max_reconnects`
//     consecutive failures the worker gives up GRACEFULLY: run_worker
//     returns with `gave_up` set and run_or_serve falls back to standalone
//     local execution of the grid.
//   - A heartbeat side thread beats every welcome-advertised interval even
//     while a long cell computes, so the coordinator's liveness deadline
//     never fires on a healthy-but-busy worker.
//   - Results are buffered until the coordinator acks them. On a broken
//     connection the worker first finishes computing its remaining leased
//     cells into the buffer (up to `outbox_max` — the backpressure bound),
//     then reconnects and re-offers everything unacked. The coordinator
//     discards what it already journaled (byte-identical duplicates), so a
//     crash-restarted coordinator loses no work and double-counts nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/shard.h"
#include "obs/metrics.h"
#include "runner/job.h"
#include "runner/runner.h"

namespace pert::exp::cli {
class OptionSet;
}

namespace pert::dist {

struct WorkerOptions {
  std::string label;        ///< free-form worker name for coordinator logs
  unsigned max_retries = 0; ///< TransientError retries per cell
  double timeout_ms = 0;    ///< per-cell wall-clock timeout (0 = none)
  bool progress = true;     ///< per-cell lines on stderr

  // --- resilience knobs --------------------------------------------------
  /// Consecutive failed connect attempts before giving up (gave_up=true).
  std::uint32_t max_reconnects = 8;
  std::uint64_t backoff_base_ms = 50;   ///< first retry sleep
  std::uint64_t backoff_cap_ms = 5000;  ///< jittered sleep never exceeds this
  /// Seed for the jitter stream (0 = derive from the grid hash and label);
  /// jitter affects only wall-clock, never results.
  std::uint64_t backoff_seed = 0;
  /// Unacked-result buffer bound: while disconnected the worker keeps
  /// computing leased cells until the buffer holds this many results, then
  /// stops (backpressure) and abandons the rest of its lease.
  std::size_t outbox_max = 64;
  /// Blocking-recv timeout; a coordinator silent this long counts as a
  /// broken connection (0 = wait forever).
  std::uint64_t recv_timeout_ms = 30000;
};

struct WorkerSummary {
  std::uint64_t completed = 0;  ///< cells this worker computed and delivered
  bool drained = false;         ///< coordinator said drain (vs. vanished)
  /// Connect/reconnect budget exhausted. The caller should fall back to
  /// standalone execution; nothing was thrown because an unreachable
  /// coordinator is an expected failure mode, not a programming error.
  bool gave_up = false;
  std::uint64_t reconnects = 0;  ///< successful re-handshakes after a drop
  std::uint64_t reoffered = 0;   ///< buffered results re-sent on reconnect
  /// dist.* counters (reconnects, reoffers, heartbeats, backoff time);
  /// side-channel observability, never merged into any report registry.
  obs::MetricRegistry metrics;
};

/// Serves `jobs` (the FULL grid, submission order) for the sweep `name` to
/// the coordinator at `address` ("host:port"). Blocks until drained or the
/// reconnect budget is exhausted (summary.gave_up). Throws
/// std::runtime_error only on a rejected hello (wrong grid or protocol
/// version) — transport failures retry instead.
WorkerSummary run_worker(const std::string& address, const std::string& name,
                         const std::vector<runner::Job>& jobs,
                         const WorkerOptions& opts = {});

/// The run-control flags of pert_sim and the runner-backed benches.
struct RunFlags {
  runner::RunnerOptions runner;  ///< --jobs, --journal, --resume, --shard
  std::string json;              ///< --json PATH: where the report goes
  std::string worker;            ///< --worker HOST:PORT: serve a coordinator
};

/// Registers --jobs --json --journal --resume --shard --worker on `opts`,
/// bound to `out`, with the check that runs once they are parsed: --resume
/// needs --journal, and --worker excludes --shard and --resume because the
/// coordinator owns cell assignment and its journal. A --journal given with
/// --worker journals the local run a worker falls back to (run_or_serve).
void add_run_flags(exp::cli::OptionSet& opts, RunFlags& out);

/// Registers --shard K/N alone, bound to `out`; `units` names what the
/// index counts ("grid cells", "iterations").
void add_shard_flag(exp::cli::OptionSet& opts, ShardSpec& out,
                    const std::string& units);

/// Runs a batch the way every bench and pert_sim does. With `worker` set,
/// `jobs` are served to the coordinator at that address under the sweep
/// name `ropts.name`; otherwise, or when the coordinator stays unreachable
/// past the reconnect budget, they run locally on the experiment runner
/// with `ropts`. Cells are pure functions of their seeds, so a fallback
/// run's report is the one the coordinator would have assembled. Returns
/// nullopt when the coordinator took the batch: it owns the report.
std::optional<runner::RunReport> run_or_serve(
    const std::vector<runner::Job>& jobs, const runner::RunnerOptions& ropts,
    const std::string& worker);

}  // namespace pert::dist
