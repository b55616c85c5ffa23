#include "sim/watchdog.h"

#include <sstream>

namespace pert::sim {

InvariantChecker::InvariantChecker(Scheduler& sched, WatchdogOptions opts)
    : sched_(&sched), opts_(opts) {}

InvariantChecker::~InvariantChecker() { stop(); }

void InvariantChecker::add_invariant(std::string name, Invariant check) {
  invariants_.emplace_back(std::move(name), std::move(check));
}

void InvariantChecker::add_diagnostic(std::string name, Diagnostic render) {
  diagnostics_.emplace_back(std::move(name), std::move(render));
}

void InvariantChecker::set_progress_probe(
    std::function<std::uint64_t()> probe) {
  probe_ = std::move(probe);
}

void InvariantChecker::start() {
  if (!opts_.enabled || pending_.valid()) return;
  last_now_ = sched_->now();
  last_progress_at_ = sched_->now();
  have_progress_ = false;
  pending_ = sched_->schedule_in(opts_.check_interval, [this] { tick(); });
}

void InvariantChecker::stop() {
  if (pending_.valid()) {
    sched_->cancel(pending_);
    pending_ = Scheduler::EventId{};
  }
}

std::string InvariantChecker::snapshot() const {
  std::ostringstream out;
  out << "sim time: " << sched_->now()
      << "\nevent-queue depth: " << sched_->pending()
      << "\nevents dispatched: " << sched_->dispatched()
      << "\nwatchdog ticks: " << ticks_;
  for (const auto& [name, render] : diagnostics_)
    out << '\n' << name << ":\n" << render();
  return out.str();
}

void InvariantChecker::check_now() {
  for (const auto& [name, check] : invariants_) {
    ++checked_;
    const std::string violation = check();
    if (!violation.empty())
      throw InvariantViolation("invariant '" + name + "' violated: " + violation,
                               snapshot());
  }
}

void InvariantChecker::tick() {
  pending_ = Scheduler::EventId{};
  ++ticks_;

  const Time now = sched_->now();
  if (now < last_now_)
    throw InvariantViolation("simulated time went backwards: " +
                                 std::to_string(now) + " < " +
                                 std::to_string(last_now_),
                             snapshot());
  last_now_ = now;

  check_now();

  if (probe_ && opts_.stall_timeout > 0) {
    const std::uint64_t progress = probe_();
    if (!have_progress_ || progress != last_progress_) {
      have_progress_ = true;
      last_progress_ = progress;
      last_progress_at_ = now;
    } else if (now - last_progress_at_ >= opts_.stall_timeout) {
      throw StallError("no progress for " +
                           std::to_string(now - last_progress_at_) +
                           " simulated seconds (probe stuck at " +
                           std::to_string(progress) + ")",
                       snapshot());
    }
  }

  pending_ = sched_->schedule_in(opts_.check_interval, [this] { tick(); });
}

}  // namespace pert::sim
