#include <gtest/gtest.h>

#include <memory>

#include "net/avq_queue.h"
#include "net/rem_queue.h"
#include "sim/scheduler.h"

namespace pert::net {
namespace {

PacketPtr mk(Ecn ecn = Ecn::Ect0, std::int32_t bytes = 1000) {
  auto p = make_packet();
  p->size_bytes = bytes;
  p->ecn = ecn;
  return p;
}

// ---------- AVQ ----------

TEST(Avq, QuietWhenArrivalRateBelowVirtualCapacity) {
  sim::Scheduler s;
  AvqQueue q(s, 100, 10e6, AvqParams{});  // gamma*C = 9.8 Mbps
  // 5 Mbps offered: one 1000-byte packet every 1.6 ms.
  for (int i = 0; i < 1000; ++i) {
    s.run_until(s.now() + 0.0016);
    q.enqueue(mk());
    q.dequeue();
  }
  EXPECT_EQ(q.snapshot().ecn_marks, 0u);
  EXPECT_EQ(q.snapshot().drops, 0u);
}

TEST(Avq, MarksWhenOverloaded) {
  sim::Scheduler s;
  AvqQueue q(s, 50, 10e6, AvqParams{});
  // 20 Mbps offered into a 10 Mbps link: virtual queue must overflow.
  std::uint64_t marks = 0;
  for (int i = 0; i < 5000; ++i) {
    s.run_until(s.now() + 0.0004);
    q.enqueue(mk());
    q.dequeue();  // keep the real queue empty; AVQ acts on the virtual one
    marks = q.snapshot().ecn_marks;
  }
  EXPECT_GT(marks, 0u);
}

TEST(Avq, DropsNonEctWhenOverloaded) {
  sim::Scheduler s;
  AvqQueue q(s, 50, 10e6, AvqParams{});
  for (int i = 0; i < 5000; ++i) {
    s.run_until(s.now() + 0.0004);
    q.enqueue(mk(Ecn::NotEct));
    q.dequeue();
  }
  EXPECT_GT(q.snapshot().early_drops, 0u);
  EXPECT_EQ(q.snapshot().ecn_marks, 0u);
}

TEST(Avq, VirtualCapacityAdaptsDownUnderLoad) {
  sim::Scheduler s;
  AvqQueue q(s, 50, 10e6, AvqParams{});
  const double c0 = q.virtual_capacity_bps();
  for (int i = 0; i < 3000; ++i) {
    s.run_until(s.now() + 0.0002);  // 40 Mbps offered
    q.enqueue(mk());
    q.dequeue();
  }
  EXPECT_LT(q.virtual_capacity_bps(), c0);
}

TEST(Avq, VirtualCapacityRecoversWhenIdle) {
  sim::Scheduler s;
  AvqQueue q(s, 50, 10e6, AvqParams{});
  for (int i = 0; i < 3000; ++i) {
    s.run_until(s.now() + 0.0002);
    q.enqueue(mk());
    q.dequeue();
  }
  const double loaded = q.virtual_capacity_bps();
  s.run_until(s.now() + 5.0);  // idle
  q.enqueue(mk());
  EXPECT_GT(q.virtual_capacity_bps(), loaded);
}

TEST(Avq, ForcedDropAtRealBufferLimit) {
  sim::Scheduler s;
  AvqQueue q(s, 3, 10e6, AvqParams{});
  for (int i = 0; i < 10; ++i) q.enqueue(mk());
  EXPECT_GE(q.snapshot().forced_drops + q.snapshot().early_drops, 7u);
  EXPECT_LE(q.len_pkts(), 3);
}

TEST(Avq, NeverMarksAPacketItDropsForOverflow) {
  // ECT arrivals at twice the drain rate keep the virtual queue congested
  // and fill the real buffer. An arrival the buffer cannot hold is an
  // overflow drop and carries no mark.
  sim::Scheduler s;
  AvqQueue q(s, 20, 10e6, AvqParams{});
  std::uint64_t marked_drops = 0;
  q.on_drop = [&](const Packet& p, sim::Time) {
    if (p.ecn == Ecn::Ce) ++marked_drops;
  };
  for (int i = 0; i < 20000; ++i) {
    s.run_until(s.now() + 0.0004);  // 1000-byte packets at 20 Mb/s
    q.enqueue(mk());
    if (i % 2 == 1) q.dequeue();  // the 10 Mb/s link drains every other one
  }
  const Queue::Stats st = q.snapshot();
  ASSERT_GT(st.forced_drops, 0u);
  ASSERT_GT(st.ecn_marks, 0u);
  EXPECT_EQ(marked_drops, 0u);
}

// ---------- REM ----------

RemParams rem_basic() {
  RemParams rp;
  rp.gamma = 0.01;
  rp.q_ref = 5;
  rp.sample_hz = 1000;
  return rp;
}

TEST(Rem, PriceRisesAboveTarget) {
  sim::Scheduler s;
  RemQueue q(s, 1000, rem_basic());
  for (int i = 0; i < 50; ++i) q.enqueue(mk());  // q = 50 >> q_ref = 5
  s.run_until(1.0);
  EXPECT_GT(q.price(), 0.0);
  EXPECT_GT(q.mark_prob(), 0.0);
}

TEST(Rem, PriceUnwindsWhenEmpty) {
  sim::Scheduler s;
  RemQueue q(s, 1000, rem_basic());
  for (int i = 0; i < 50; ++i) q.enqueue(mk());
  s.run_until(1.0);
  while (q.dequeue()) {
  }
  s.run_until(10.0);
  EXPECT_DOUBLE_EQ(q.price(), 0.0);
  EXPECT_DOUBLE_EQ(q.mark_prob(), 0.0);
}

TEST(Rem, ExponentialMarkingLaw) {
  sim::Scheduler s;
  RemQueue q(s, 1000, rem_basic());
  for (int i = 0; i < 100; ++i) q.enqueue(mk());
  s.run_until(0.5);
  const double expected = 1.0 - std::pow(rem_basic().phi, -q.price());
  EXPECT_NEAR(q.mark_prob(), expected, 1e-12);
}

TEST(Rem, MarksEctDropsNotEct) {
  sim::Scheduler s;
  RemQueue q(s, 10000, rem_basic());
  for (int i = 0; i < 200; ++i) q.enqueue(mk());
  s.run_until(2.0);
  ASSERT_GT(q.mark_prob(), 0.01);
  const auto before = q.snapshot();
  for (int i = 0; i < 1000; ++i) q.enqueue(mk(Ecn::Ect0));
  const auto mid = q.snapshot();
  EXPECT_GT(mid.ecn_marks, before.ecn_marks);
  for (int i = 0; i < 1000; ++i) q.enqueue(mk(Ecn::NotEct));
  EXPECT_GT(q.snapshot().early_drops, mid.early_drops);
}

TEST(Rem, PriceNeverNegative) {
  sim::Scheduler s;
  RemQueue q(s, 1000, rem_basic());
  s.run_until(5.0);  // empty queue, negative error integrates
  EXPECT_GE(q.price(), 0.0);
}

}  // namespace
}  // namespace pert::net
