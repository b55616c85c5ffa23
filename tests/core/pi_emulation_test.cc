#include "core/pi_emulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sampled_pert.h"
#include "net/network.h"
#include "tcp/tcp_sink.h"

namespace pert::core {
namespace {

TEST(PiEmuDesign, CoefficientsOrderedAndPositive) {
  const PiEmuDesign d = PiEmuDesign::for_path(12000, 50, 0.2);
  EXPECT_GT(d.a, 0.0);
  EXPECT_GT(d.b, 0.0);
  EXPECT_GT(d.a, d.b);
}

TEST(PiEmuDesign, DelayBasedGainCarriesCSquared) {
  // Doubling C should scale K by ~1/2 for the delay-based controller
  // (K ~ C^-2 * m-term ~ ...); verify direction: larger C -> smaller a.
  const PiEmuDesign d1 = PiEmuDesign::for_path(1000, 50, 0.2);
  const PiEmuDesign d2 = PiEmuDesign::for_path(10000, 50, 0.2);
  EXPECT_GT(d1.a, d2.a);
}

TEST(PiEmuDesign, EmulationEqualsRouterTimesCapacity) {
  // Section 6.1: PERT-PI parameters = router PI parameters * link capacity.
  // Our delay-based design divides the loop gain by C relative to the
  // router design, which is the same statement: a_delay ~ a_router * C.
  const double c = 12000;
  const PiEmuDesign delay_based = PiEmuDesign::for_path(c, 50, 0.2);
  // Router design per [16] uses C^3; replicate the formula here.
  const double m = 2.0 * 50 / (0.2 * 0.2 * c);
  const double gain_router = std::pow(0.2, 3) * std::pow(c, 3) / (4.0 * 50 * 50);
  const double k_router = m * std::sqrt(0.2 * 0.2 * m * m + 1.0) / gain_router;
  const double a_router = k_router / m + k_router * delay_based.sample_interval / 2.0;
  EXPECT_NEAR(delay_based.a / a_router, c, c * 1e-9);
}

TEST(PiEmulator, IntegratesPositiveError) {
  PiEmuDesign d;
  d.a = 0.01;
  d.b = 0.008;
  d.tq_ref = 0.003;
  PiEmulator pi(d);
  for (int i = 0; i < 100; ++i) pi.update(0.010);  // delay above target
  EXPECT_GT(pi.probability(), 0.0);
}

TEST(PiEmulator, UnwindsOnNegativeError) {
  PiEmuDesign d;
  d.a = 0.01;
  d.b = 0.008;
  d.tq_ref = 0.003;
  PiEmulator pi(d);
  for (int i = 0; i < 200; ++i) pi.update(0.010);
  const double peak = pi.probability();
  for (int i = 0; i < 2000; ++i) pi.update(0.0);
  EXPECT_LT(pi.probability(), peak);
  EXPECT_DOUBLE_EQ(pi.probability(), 0.0);  // fully unwound and clamped
}

TEST(PiEmulator, ZeroErrorHoldsSteady) {
  PiEmuDesign d;
  d.a = 0.01;
  d.b = 0.008;
  d.tq_ref = 0.003;
  PiEmulator pi(d);
  for (int i = 0; i < 100; ++i) pi.update(0.010);
  const double p1 = pi.probability();
  pi.update(d.tq_ref);  // settle previous-sample term
  const double p2 = pi.probability();
  for (int i = 0; i < 50; ++i) pi.update(d.tq_ref);
  // Integral holds when the error is zero.
  EXPECT_NEAR(pi.probability(), p2, 1e-12);
  EXPECT_LE(pi.probability(), p1);
}

TEST(PiEmulator, ClampedToUnitInterval) {
  PiEmuDesign d;
  d.a = 10;
  d.b = 1;
  PiEmulator pi(d);
  for (int i = 0; i < 100; ++i) pi.update(1.0);
  EXPECT_LE(pi.probability(), 1.0);
  for (int i = 0; i < 1000; ++i) pi.update(-1.0);
  EXPECT_GE(pi.probability(), 0.0);
}

TEST(PertPiSender, HoldsQueueNearTargetDelay) {
  net::Network net(21);
  auto* a = net.add_node();
  auto* b = net.add_node();
  const double rate = 10e6;
  const double pps = rate / (8 * 1040);
  auto* fwd = net.add_link(
      a, b, rate, 0.025, std::make_unique<net::DropTailQueue>(net.sched(), 2000));
  net.add_link(b, a, rate, 0.025,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  tcp::TcpConfig cfg;
  std::vector<PertPiSender*> senders;
  const PiEmuDesign d = PiEmuDesign::for_path(pps, 4, 0.15, 0.005);
  for (int i = 0; i < 4; ++i) {
    net.add_agent<tcp::TcpSink>(b, 30 + i, net);
    auto* s = net.add_agent<PertPiSender>(a, 30 + i, net, cfg, i, d);
    s->connect(b->id(), 30 + i);
    s->start(i * 0.2);
    senders.push_back(s);
  }
  net.run_until(20.0);
  const auto q0 = fwd->queue().snapshot();
  net.run_until(60.0);
  const auto q1 = fwd->queue().snapshot();
  const double avg_pkts = (q1.len_integral - q0.len_integral) / 40.0;
  const double avg_delay = avg_pkts / pps;
  // Queue settles in the vicinity of the 5 ms target, far below the
  // 2000-packet buffer (~1.6 s worth).
  EXPECT_LT(avg_delay, 0.030);
  EXPECT_EQ(q1.drops, 0u);
  std::int64_t early = 0;
  for (auto* s : senders) early += s->flow_stats().early_responses;
  EXPECT_GT(early, 0);
}

}  // namespace
}  // namespace pert::core
