// Same-timestamp runs of events ("batches") through the one dispatch loop:
// they dispatch in schedule order, and cancel(), pending() and slot reuse
// keep exact semantics while a run is being dispatched. The randomized case
// replays schedule/cancel scripts with heavy timestamp collisions and checks
// the dispatch trace against the scheduler's contract.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace pert::sim {
namespace {

// A deterministic script of operations replayed against a scheduler. Each
// event may, from inside its callback, schedule more events (possibly at the
// current timestamp) and cancel a pending one. Logical ids are handed out in
// schedule order, so a correct scheduler dispatches in increasing (time, id).
class Script {
 public:
  explicit Script(std::uint64_t seed, int initial, int max_events)
      : rng_(seed), max_events_(max_events), initial_(initial) {}

  void run_on(Scheduler& s) {
    for (int i = 0; i < initial_; ++i) spawn(s, next_id_++, rng_.uniform(0, 4));
    s.run_until(1e9);
  }

  int scheduled() const { return next_id_; }
  /// (logical id, dispatch time) per dispatched event, in dispatch order.
  const std::vector<std::pair<int, Time>>& ran() const { return ran_; }
  /// Ids whose cancel() returned true.
  const std::vector<int>& cancelled() const { return cancelled_; }
  /// Number of cancel() calls whose result disagreed with whether the
  /// event was still pending, i.e. had neither run nor been cancelled
  /// (must stay 0).
  int cancel_mismatches() const { return cancel_mismatches_; }

 private:
  void spawn(Scheduler& s, int id, Time t) {
    // Coarse times force heavy timestamp collisions (same-time runs).
    const Time qt = static_cast<Time>(static_cast<int>(t * 8.0)) / 8.0;
    ids_.resize(static_cast<std::size_t>(next_id_), Scheduler::EventId{});
    done_.resize(static_cast<std::size_t>(next_id_), false);
    ids_[static_cast<std::size_t>(id)] = s.schedule_at(qt, [this, &s, id] {
      ran_.emplace_back(id, s.now());
      done_[static_cast<std::size_t>(id)] = true;
      if (next_id_ < max_events_) {
        // Spawn 0-2 children, sometimes at the current time exactly.
        const int n = static_cast<int>(rng_.uniform(0.0, 3.0));
        for (int c = 0; c < n && next_id_ < max_events_; ++c) {
          const bool same_t = rng_.bernoulli(0.3);
          spawn(s, next_id_++, same_t ? s.now() : s.now() + rng_.uniform(0.01, 1.0));
        }
        // Occasionally cancel a random earlier event (often already run —
        // cancel() then reports false; sometimes in this same-time run).
        if (rng_.bernoulli(0.4)) {
          const int victim = static_cast<int>(
              rng_.uniform(0.0, static_cast<double>(next_id_)));
          const std::size_t v = static_cast<std::size_t>(victim);
          const bool was_pending = !done_[v];
          if (s.cancel(ids_[v])) {
            if (!was_pending) ++cancel_mismatches_;
            cancelled_.push_back(victim);
            done_[v] = true;
          } else if (was_pending) {
            ++cancel_mismatches_;
          }
        }
      }
    });
  }

  Rng rng_;
  int max_events_;
  int initial_;
  int next_id_ = 0;
  std::vector<Scheduler::EventId> ids_;
  std::vector<bool> done_;  // ran or cancelled
  std::vector<std::pair<int, Time>> ran_;
  std::vector<int> cancelled_;
  int cancel_mismatches_ = 0;
};

TEST(SchedulerBatch, RandomizedScriptRunsInOrderAndHonoursCancel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scheduler s;
    Script script(seed, /*initial=*/12, /*max_events=*/400);
    script.run_on(s);
    const auto& ran = script.ran();

    // Dispatch order is (time, schedule order), strictly increasing.
    for (std::size_t i = 1; i < ran.size(); ++i) {
      ASSERT_TRUE(ran[i - 1].second < ran[i].second ||
                  (ran[i - 1].second == ran[i].second &&
                   ran[i - 1].first < ran[i].first))
          << "seed " << seed << " at dispatch " << i;
    }
    // cancel() returns true exactly for pending events, and those never run;
    // every other scheduled event runs exactly once.
    EXPECT_EQ(script.cancel_mismatches(), 0) << "seed " << seed;
    std::vector<int> fate(static_cast<std::size_t>(script.scheduled()), 0);
    for (const auto& [id, t] : ran) ++fate[static_cast<std::size_t>(id)];
    for (int id : script.cancelled()) {
      EXPECT_EQ(fate[static_cast<std::size_t>(id)], 0)
          << "seed " << seed << ": cancelled event " << id << " ran";
      fate[static_cast<std::size_t>(id)] = 1;
    }
    for (std::size_t id = 0; id < fate.size(); ++id)
      EXPECT_EQ(fate[id], 1) << "seed " << seed << " event " << id;
    EXPECT_GT(script.cancelled().size(), 0u) << "seed " << seed;
    EXPECT_EQ(s.dispatched(), ran.size()) << "seed " << seed;
    EXPECT_EQ(s.pending(), 0u) << "seed " << seed;
  }
}

TEST(SchedulerBatch, CancelInsideDrainedBatchSuppressesEvent) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::EventId b;
  s.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(s.cancel(b));  // B shares this timestamp but has not run
  });
  b = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.dispatched(), 2);
}

TEST(SchedulerBatch, CancelOfAlreadyDispatchedBatchEventReportsFalse) {
  Scheduler s;
  Scheduler::EventId a;
  bool cancelled = false;
  a = s.schedule_at(1.0, [] {});
  s.schedule_at(1.0, [&] { cancelled = s.cancel(a); });
  s.run_until(2.0);
  EXPECT_FALSE(cancelled);  // A ran earlier in the same batch
}

TEST(SchedulerBatch, CancelledBatchSlotIsReusableImmediately) {
  // Cancelling a same-time event releases its slot; a schedule from the same
  // run may reuse it. The stale EventId (old generation) must stay dead.
  Scheduler s;
  std::vector<int> order;
  Scheduler::EventId b;
  s.schedule_at(1.0, [&] {
    EXPECT_TRUE(s.cancel(b));
    s.schedule_at(1.0, [&] { order.push_back(9); });  // may recycle B's slot
    EXPECT_FALSE(s.cancel(b));                        // old gen: must miss
  });
  b = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{9}));
}

TEST(SchedulerBatch, PendingCountsUndispatchedBatchRemainder) {
  Scheduler s;
  std::vector<std::size_t> seen;
  for (int i = 0; i < 5; ++i)
    s.schedule_at(1.0, [&] { seen.push_back(s.pending()); });
  s.run_until(2.0);
  // Each dispatched event observes the not-yet-run remainder of its own
  // same-time run as still pending.
  EXPECT_EQ(seen, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerBatch, SameTimeScheduleFromBatchRunsAfterBatch) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] {
    order.push_back(0);
    s.schedule_at(1.0, [&] { order.push_back(99); });
  });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.run_until(2.0);
  // The same-timestamp child has a later sequence number than every event
  // already scheduled at this time, so it runs after them.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
  EXPECT_EQ(s.now(), 2.0);  // run_until advances the clock to its horizon
}

TEST(SchedulerBatch, KeyedEventsOrderBeforeLocalsAtEqualTime) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(100); });   // local lane
  s.schedule_at_keyed(1.0, 7, [&] { order.push_back(7); });
  s.schedule_at_keyed(1.0, 3, [&] { order.push_back(3); });
  s.run_until(2.0);
  // Boundary (keyed) events sort by key below every local event, no matter
  // the call order — the parallel engine's determinism hinges on this.
  EXPECT_EQ(order, (std::vector<int>{3, 7, 100}));
}

TEST(SchedulerBatch, RunUntilExclusiveStopsBeforeBoundary) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run_until_exclusive(2.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.next_time(), 2.0);
  s.run_until(2.0);  // inclusive picks up the boundary event
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerBatch, NextTimeIsInfinityWhenEmpty) {
  Scheduler s;
  EXPECT_GT(s.next_time(), 1e300);
  s.schedule_at(4.0, [] {});
  EXPECT_EQ(s.next_time(), 4.0);
}

}  // namespace
}  // namespace pert::sim
