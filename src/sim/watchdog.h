// Simulation watchdog: periodic invariant checking and stall detection.
//
// An InvariantChecker self-schedules on the simulation clock (one event every
// check_interval simulated seconds) and on each tick:
//   1. verifies simulated time is monotone non-decreasing,
//   2. runs every registered invariant; a non-empty return is a violation and
//      aborts the run with an InvariantViolation carrying a diagnostics
//      snapshot (event-queue depth plus every registered diagnostic),
//   3. compares the progress probe against its last value; if it has not
//      moved for stall_timeout simulated seconds the run aborts with a
//      StallError and the same snapshot.
//
// The checker is deterministic: it schedules at fixed simulated times and
// consumes no randomness, so enabling it never changes simulation results —
// only adds events (tier-1 suites run with it enabled everywhere).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/errors.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace pert::sim {

struct WatchdogOptions {
  bool enabled = true;
  /// Simulated seconds between checks.
  Time check_interval = 0.5;
  /// Abort if the progress probe is flat for this many simulated seconds.
  /// 0 disables stall detection.
  Time stall_timeout = 120.0;
};

class InvariantChecker {
 public:
  /// An invariant returns "" while it holds, or a violation message.
  using Invariant = std::function<std::string()>;
  /// A diagnostic renders one labelled chunk of state for abort snapshots.
  using Diagnostic = std::function<std::string()>;

  InvariantChecker(Scheduler& sched, WatchdogOptions opts = {});
  ~InvariantChecker();
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void add_invariant(std::string name, Invariant check);
  void add_diagnostic(std::string name, Diagnostic render);

  /// Monotone counter that must advance while the simulation is healthy
  /// (e.g. cumulative acked packets + queue departures).
  void set_progress_probe(std::function<std::uint64_t()> probe);

  /// Schedules the first tick; no-op when disabled or already started.
  void start();
  /// Cancels the pending tick (e.g. before tearing the topology down).
  void stop();

  /// Runs every invariant immediately (also called by each tick). Throws
  /// InvariantViolation on the first failure. Exposed so tests and drivers
  /// can assert a final consistent state after the run loop ends.
  void check_now();

  std::uint64_t ticks() const noexcept { return ticks_; }
  std::uint64_t invariants_checked() const noexcept { return checked_; }

  /// The abort snapshot: scheduler state plus every registered diagnostic.
  std::string snapshot() const;

 private:
  void tick();

  Scheduler* sched_;
  WatchdogOptions opts_;
  std::vector<std::pair<std::string, Invariant>> invariants_;
  std::vector<std::pair<std::string, Diagnostic>> diagnostics_;
  std::function<std::uint64_t()> probe_;
  Scheduler::EventId pending_;
  Time last_now_ = 0.0;
  std::uint64_t last_progress_ = 0;
  Time last_progress_at_ = 0.0;
  bool have_progress_ = false;
  std::uint64_t ticks_ = 0;
  std::uint64_t checked_ = 0;
};

}  // namespace pert::sim
