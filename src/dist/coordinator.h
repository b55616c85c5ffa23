// Work-stealing sweep coordinator: serves grid cells to TCP workers and
// streams their results into a crash-safe journal.
//
// The coordinator is grid-agnostic — it never materializes job bodies. The
// sweep's identity (name, cell count, shard-independent grid hash) is pinned
// either from a resumed journal header or from the first worker's hello;
// every later hello must match or is rejected, as is any worker speaking a
// different protocol revision. Workers compute cells and stream back full
// JobResult records, which the coordinator journals exactly as an in-process
// `--journal` run would, so the final report is byte-identical (minus
// volatile wall-clock fields) to `--jobs 1` and the journal is resumable by
// the bench itself.
//
// Scheduling is pull-based work stealing at cell-range granularity:
//
//   - a requesting worker is leased a contiguous chunk of the pending pool,
//     sized 1/(2·workers) of what remains so late joiners still find work;
//   - when the pool is empty, the requester steals half of the LARGEST
//     outstanding lease. Stolen cells are leased to both workers —
//     speculative duplicates are harmless because every cell is a pure
//     function of its seed, and the first result to arrive wins;
//   - worker liveness is heartbeat-based: `welcome` advertises the expected
//     cadence, a side thread on the worker beats it even while a long cell
//     computes, and a connection silent for `heartbeat_misses` beats has its
//     lease revoked — unfinished cells return to the pool. A SIGKILLed
//     worker is detected sooner via EOF on its socket;
//   - every accepted result is acknowledged (`ack`), which is what lets a
//     worker bound its retained-result buffer and re-offer unacked results
//     after a reconnect. Duplicates (steal races, re-offers after a
//     coordinator restart) are discarded and still acked.
//
// Failover: alongside the journal the coordinator periodically snapshots
// its scheduling state — the pending-pool order and the lease table — to
// `<journal>.ckpt` with the same atomic temp+fsync+rename discipline the
// journal uses. The journal remains the single source of truth for WHICH
// cells are done (every record is fsynced before it is acked); the
// checkpoint only restores scheduling shape, so a coordinator SIGKILLed at
// any instant and restarted with `resume` continues the sweep with no lost
// and no double-counted cells: previously-leased cells are queued LAST, so
// surviving workers get credit for in-flight work they re-offer instead of
// the grid re-running it.
//
// Shutdown: when every cell is done the coordinator writes the report,
// answers further requests with `drain`, and exits once all workers have
// disconnected. Setting the `drain` flag (e.g. from a SIGTERM handler)
// stops new assignments immediately; in-flight cells still land in the
// journal, then a status:"partial" report is written.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "runner/job.h"

namespace pert::dist {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral; see Coordinator::port()
  std::string journal_path;      ///< required: results stream here
  std::string json_path;         ///< when non-empty, final report JSON
  bool resume = false;           ///< recover done cells from journal_path
  std::uint64_t lease_ms = 30000;  ///< liveness budget before the first
                                   ///< hello, and the heartbeat fallback
                                   ///< when heartbeat_ms == 0
  std::uint64_t wait_ms = 250;   ///< worker backoff when nothing assignable
  std::uint64_t heartbeat_ms = 1000;  ///< cadence advertised in welcome
  std::uint64_t heartbeat_misses = 4; ///< silent beats before revocation
  /// Snapshot scheduling state to `<journal>.ckpt` every this many accepted
  /// results (0 disables checkpointing).
  std::uint64_t checkpoint_every = 4;
  /// When non-empty, the coordinator's own dist.* metric registry (steals,
  /// discarded duplicates, revoked leases, ...) is written here in the
  /// RunReport's registry encoding (runner::to_json).
  /// Kept OUT of the sweep report on purpose: the report must stay
  /// byte-identical to a local run, chaos or no chaos.
  std::string dist_metrics_path;
  /// When non-null and set, the coordinator drains: stops assigning, keeps
  /// accepting in-flight results, writes a partial report, exits.
  const std::atomic<bool>* drain = nullptr;
  bool verbose = true;           ///< progress lines on stderr
};

struct CoordinatorResult {
  runner::RunReport report;
  std::uint64_t completed = 0;   ///< cells completed by workers this serve
  std::uint64_t resumed = 0;     ///< cells recovered from the journal
  std::uint64_t superseded = 0;  ///< duplicate results (steals/races/
                                 ///< re-offers) discarded
  std::uint64_t revoked = 0;     ///< leases revoked by timeout or disconnect
  bool drained = false;          ///< exited early via the drain flag
  /// dist.* counters for the serve (see CoordinatorOptions::
  /// dist_metrics_path for the naming); side-channel only, never merged
  /// into the report registry.
  obs::MetricRegistry metrics;
};

class Coordinator {
 public:
  /// Binds and listens immediately (throws std::runtime_error on a missing
  /// journal path or bind failure); serve() starts the loop and performs
  /// journal + checkpoint recovery when `resume` is set.
  explicit Coordinator(CoordinatorOptions opts);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The actually-bound port (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Runs the serve loop on the calling thread until the grid completes or
  /// the drain flag is set. Returns the assembled report.
  CoordinatorResult serve();

  /// The scheduling-state snapshot path for a given journal path.
  static std::string checkpoint_path(const std::string& journal_path) {
    return journal_path + ".ckpt";
  }

 private:
  CoordinatorOptions opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace pert::dist
