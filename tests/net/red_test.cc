#include "net/red_queue.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scheduler.h"

namespace pert::net {
namespace {

PacketPtr mk(Ecn ecn = Ecn::NotEct) {
  auto p = make_packet();
  p->size_bytes = 1000;
  p->ecn = ecn;
  return p;
}

RedParams basic() {
  RedParams rp;
  rp.min_th = 5;
  rp.max_th = 15;
  rp.max_p = 0.1;
  rp.wq = 0.5;  // fast-tracking avg for unit tests
  rp.gentle = true;
  rp.ecn = false;
  rp.adaptive = false;
  rp.link_rate_pps = 1000;
  return rp;
}

TEST(Red, NoDropsBelowMinThreshold) {
  sim::Scheduler s;
  RedQueue q(s, 100, basic());
  for (int i = 0; i < 4; ++i) q.enqueue(mk());
  EXPECT_EQ(q.snapshot().drops, 0u);
  EXPECT_EQ(q.len_pkts(), 4);
}

TEST(Red, AvgTracksQueueLength) {
  sim::Scheduler s;
  RedQueue q(s, 100, basic());
  for (int i = 0; i < 20; ++i) q.enqueue(mk());
  // With wq=0.5 the avg converges quickly toward the instantaneous length.
  EXPECT_GT(q.avg(), 5.0);
  EXPECT_LE(q.avg(), 20.0);
}

TEST(Red, EarlyDropsBetweenThresholds) {
  sim::Scheduler s;
  RedQueue q(s, 1000, basic());
  for (int i = 0; i < 400; ++i) q.enqueue(mk());
  const auto st = q.snapshot();
  EXPECT_GT(st.early_drops, 0u);
  EXPECT_EQ(st.forced_drops, 0u);  // never hit capacity
}

TEST(Red, EcnMarksInsteadOfDropping) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.ecn = true;
  RedQueue q(s, 1000, rp);
  // Hold the queue inside the early-marking band (between min_th and
  // max_th); ECT packets must be marked, never early-dropped there.
  bool saw_ce = false;
  for (int i = 0; i < 2000; ++i) {
    while (q.len_pkts() < 10) q.enqueue(mk(Ecn::Ect0));
    if (auto p = q.dequeue()) saw_ce |= p->ecn == Ecn::Ce;
  }
  const auto st = q.snapshot();
  EXPECT_GT(st.ecn_marks, 0u);
  EXPECT_EQ(st.early_drops, 0u);
  EXPECT_TRUE(saw_ce);
}

TEST(Red, NonEctPacketsAreDroppedEvenWithEcnQueue) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.ecn = true;
  RedQueue q(s, 1000, rp);
  for (int i = 0; i < 400; ++i) q.enqueue(mk(Ecn::NotEct));
  EXPECT_GT(q.snapshot().early_drops, 0u);
  EXPECT_EQ(q.snapshot().ecn_marks, 0u);
}

TEST(Red, HardDropBeyondGentleRegion) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.ecn = true;  // even ECN queues drop above 2*max_th
  RedQueue q(s, 1000, rp);
  // Push far beyond 2*max_th = 30 with fast avg: drops must become forced.
  for (int i = 0; i < 200; ++i) q.enqueue(mk(Ecn::Ect0));
  // avg > 30 now; further arrivals are dropped with probability 1.
  const auto before = q.snapshot().drops;
  for (int i = 0; i < 50; ++i) q.enqueue(mk(Ecn::Ect0));
  EXPECT_GT(q.snapshot().drops, before);
}

TEST(Red, FullBufferAlwaysForcedDrop) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.min_th = 1e9;  // disable early dropping entirely
  rp.max_th = 2e9;
  RedQueue q(s, 5, rp);
  for (int i = 0; i < 10; ++i) q.enqueue(mk());
  const auto st = q.snapshot();
  EXPECT_EQ(st.forced_drops, 5u);
  EXPECT_EQ(q.len_pkts(), 5);
}

TEST(Red, IdleDecayReducesAverage) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.wq = 0.2;
  RedQueue q(s, 100, rp);
  for (int i = 0; i < 20; ++i) q.enqueue(mk());
  while (q.dequeue()) {
  }
  const double avg_full = q.avg();
  s.run_until(1.0);  // 1 s idle at 1000 pkt/s -> decay by (1-wq)^1000
  q.enqueue(mk());
  EXPECT_LT(q.avg(), avg_full / 10);
}

TEST(Red, GentleRampIsContinuous) {
  // The probability function should not jump at avg == max_th when gentle.
  sim::Scheduler s;
  RedParams rp = basic();
  // Sanity via public behavior: just below max_th mark prob <= max_p, just
  // above it stays close to max_p (not 1). Statistical check.
  rp.wq = 1.0;  // avg == instantaneous
  rp.ecn = false;
  RedQueue q(s, 10000, rp);
  // Fill to exactly max_th packets: avg = 15, early-drop prob ~ max_p.
  std::uint64_t drops_at_16 = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    while (q.len_pkts() < 16) q.enqueue(mk());
    const auto before = q.snapshot().drops;
    q.enqueue(mk());
    drops_at_16 += q.snapshot().drops - before;
    while (q.dequeue()) {
    }
    s.run_until(s.now() + 1e-9);
  }
  // Just above max_th in gentle mode: probability near max_p (0.1),
  // certainly far from 1. Count-correction lifts the effective rate, so
  // allow a generous band.
  const double rate = static_cast<double>(drops_at_16) / 2000.0;
  EXPECT_LT(rate, 0.6);
  EXPECT_GT(rate, 0.02);
}

TEST(Red, AdaptiveRaisesMaxPUnderPressure) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.adaptive = true;
  rp.max_p = 0.02;
  rp.wq = 0.5;
  RedQueue q(s, 1000, rp);
  const double p0 = q.cur_max_p();
  // Hold the queue deep inside the band above target for several adapt
  // intervals.
  for (int round = 0; round < 10; ++round) {
    while (q.len_pkts() < 14) q.enqueue(mk());
    s.run_until(s.now() + 0.6);
  }
  EXPECT_GT(q.cur_max_p(), p0);
}

TEST(Red, AdaptiveLowersMaxPWhenIdle) {
  sim::Scheduler s;
  RedParams rp = basic();
  rp.adaptive = true;
  rp.max_p = 0.4;
  RedQueue q(s, 1000, rp);
  s.run_until(10.0);  // queue empty, avg below target
  EXPECT_LT(q.cur_max_p(), 0.4);
  EXPECT_GE(q.cur_max_p(), 0.009);  // floor respected
}

TEST(Red, AutoTunedParamsSane) {
  const RedParams p = RedParams::auto_tuned(600, 12000.0);
  EXPECT_GE(p.min_th, 5.0);
  EXPECT_GT(p.max_th, p.min_th);
  EXPECT_LE(p.max_th, 600.0);
  EXPECT_GT(p.wq, 0.0);
  EXPECT_LT(p.wq, 0.1);
  EXPECT_TRUE(p.adaptive);
}

class RedSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RedSeedSweep, DropRateBoundedByCurve) {
  // Property: with avg pinned between min_th and max_th, the long-run
  // mark/drop rate stays within [0, ~3*max_p] (count-correction raises the
  // marginal rate above max_p but keeps the same order of magnitude).
  sim::Scheduler s;
  RedParams rp = basic();
  rp.wq = 1.0;
  RedQueue q(s, 10000, rp, sim::Rng(GetParam()));
  std::uint64_t dropped = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    while (q.len_pkts() < 10) q.enqueue(mk());  // avg == 10 == midpoint
    const auto before = q.snapshot().drops;
    q.enqueue(mk());
    dropped += q.snapshot().drops - before;
    q.dequeue();
  }
  const double rate = static_cast<double>(dropped) / trials;
  EXPECT_LE(rate, 3 * rp.max_p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedSeedSweep, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace pert::net
