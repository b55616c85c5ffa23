#include "sim/watchdog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/errors.h"
#include "sim/scheduler.h"

namespace pert::sim {
namespace {

TEST(Watchdog, PassingInvariantsLetTheRunComplete) {
  Scheduler s;
  WatchdogOptions opts;
  opts.check_interval = 0.1;
  InvariantChecker c(s, opts);
  c.add_invariant("always-fine", [] { return std::string{}; });
  c.start();
  s.run_until(2.0);
  EXPECT_GE(c.ticks(), 19u);
  EXPECT_GE(c.invariants_checked(), c.ticks());
}

TEST(Watchdog, InvariantViolationCarriesDiagnostics) {
  Scheduler s;
  WatchdogOptions opts;
  opts.check_interval = 0.1;
  InvariantChecker c(s, opts);
  bool broken = false;
  c.add_invariant("conservation", [&broken] {
    return broken ? std::string("5 packets missing") : std::string{};
  });
  c.add_diagnostic("flows", [] { return std::string("  flow 0: cwnd=12\n"); });
  c.start();
  s.schedule_at(0.35, [&broken] { broken = true; });

  try {
    s.run_until(2.0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("conservation"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5 packets missing"),
              std::string::npos);
    EXPECT_NE(e.diagnostics().find("flows"), std::string::npos);
    EXPECT_NE(e.diagnostics().find("cwnd=12"), std::string::npos);
  }
  // Violation surfaced at the first tick after the flip.
  EXPECT_NEAR(s.now(), 0.4, 1e-9);
}

TEST(Watchdog, StallDetectorFiresWhenProgressFlat) {
  Scheduler s;
  WatchdogOptions opts;
  opts.check_interval = 0.25;
  opts.stall_timeout = 1.0;
  InvariantChecker c(s, opts);
  c.set_progress_probe([] { return std::uint64_t{42}; });  // never advances
  c.start();
  EXPECT_THROW(s.run_until(10.0), StallError);
  EXPECT_LT(s.now(), 2.0);  // caught promptly, not at the horizon
}

TEST(Watchdog, AdvancingProgressSuppressesStall) {
  Scheduler s;
  WatchdogOptions opts;
  opts.check_interval = 0.25;
  opts.stall_timeout = 1.0;
  InvariantChecker c(s, opts);
  std::uint64_t work = 0;
  c.set_progress_probe([&work] { return ++work; });
  c.start();
  EXPECT_NO_THROW(s.run_until(10.0));
}

TEST(Watchdog, DisabledCheckerIsInert) {
  Scheduler s;
  WatchdogOptions opts;
  opts.enabled = false;
  InvariantChecker c(s, opts);
  c.add_invariant("never-run", [] { return std::string("boom"); });
  c.start();
  s.run_until(1.0);
  EXPECT_EQ(c.ticks(), 0u);
}

TEST(Watchdog, StopCancelsFutureTicks) {
  Scheduler s;
  WatchdogOptions opts;
  opts.check_interval = 0.1;
  InvariantChecker c(s, opts);
  c.start();
  s.run_until(0.55);
  const std::uint64_t ticks = c.ticks();
  c.stop();
  s.run_until(2.0);
  EXPECT_EQ(c.ticks(), ticks);
}

TEST(Watchdog, SnapshotListsSchedulerState) {
  Scheduler s;
  InvariantChecker c(s, {});
  c.add_diagnostic("queues", [] { return std::string("  link 0: len=3\n"); });
  const std::string snap = c.snapshot();
  EXPECT_NE(snap.find("sim time"), std::string::npos);
  EXPECT_NE(snap.find("queues"), std::string::npos);
  EXPECT_NE(snap.find("len=3"), std::string::npos);
}

TEST(Scheduler, InstantEventLimitCatchesZeroDelayLoop) {
  Scheduler s;
  s.set_instant_event_limit(1000);
  std::function<void()> loop = [&s, &loop] { s.schedule_in(0.0, loop); };
  s.schedule_in(0.0, loop);
  EXPECT_THROW(s.run_until(1.0), StallError);
  EXPECT_EQ(s.now(), 0.0);  // time never advanced
}

TEST(Scheduler, InstantEventLimitResetsWhenTimeAdvances) {
  Scheduler s;
  s.set_instant_event_limit(100);
  // 90 instant events per step, over 5 steps: never trips the limit because
  // each time advance resets the streak.
  for (int step = 0; step < 5; ++step) {
    s.schedule_at(0.1 * step, [&s] {
      for (int i = 0; i < 90; ++i) s.schedule_in(0.0, [] {});
    });
  }
  EXPECT_NO_THROW(s.run_until(1.0));
}

}  // namespace
}  // namespace pert::sim
