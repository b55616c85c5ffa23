#include "core/pi_emulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sampled_pert.h"
#include "exp/dumbbell.h"
#include "net/network.h"
#include "net/pi_queue.h"
#include "sim/random.h"
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
  // Built at matched parameters (q_ref = C * tq_ref, no gain boost), the
  // end-host coefficients are the router's times C, so the one PI law fed
  // q_k at the router and q_k / C at the end host gives the same
  // probability at every step.
  const double tq_ref = 0.003;
  sim::Rng rng(11);
  for (const double c : {1000.0, 12000.0})
    for (const double n : {5.0, 50.0})
      for (const double r : {0.05, 0.2}) {
        const net::PiDesign router =
            net::PiDesign::for_link(c, n, r, c * tq_ref);
        const PiEmuDesign host =
            PiEmuDesign::for_path(c, n, r, tq_ref, router.sample_hz, 1.0);
        EXPECT_NEAR(host.a / router.a, c, c * 1e-12);
        EXPECT_NEAR(host.b / router.b, c, c * 1e-12);
        net::PiLaw router_law(router.a, router.b, router.q_ref);
        PiEmulator host_law(host);
        double max_p = 0.0;
        for (int k = 0; k < 5000; ++k) {
          const double q = rng.uniform(0.5, 3.0) * router.q_ref;
          const double p = router_law.update(q);
          ASSERT_NEAR(host_law.update(q / c), p, 1e-12)
              << "C=" << c << " N=" << n << " R=" << r << " k=" << k;
          max_p = std::max(max_p, p);
        }
        // The router's design integrates slowly at small N and long R; the
        // probability still has to leave zero for the comparison to bite.
        EXPECT_GT(max_p, 1e-7) << "C=" << c << " N=" << n << " R=" << r;
      }
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

TEST(SampledPertSender, EarlyBetaAndSampleRateReachPertPiAndPertRem) {
  // PERT/PI and PERT/REM run PERT's own early response with the flow's
  // PertParams, and both controllers sample at
  // DumbbellConfig::pert_pi_sample_hz (the rate the metamorphic rescale
  // doubles), so a heavier decrease or a faster controller changes the run.
  for (const char* scheme : {"pert-pi", "pert-rem"}) {
    const auto run = [scheme](double beta, double hz) {
      exp::DumbbellConfig cfg;
      cfg.scheme = exp::parse_scheme_spec(scheme);
      cfg.bottleneck_bps = 10e6;
      cfg.rtt = 0.04;
      cfg.num_fwd_flows = 4;
      cfg.start_window = 0.5;
      cfg.pert.early_beta = beta;
      cfg.pert_pi_sample_hz = hz;
      exp::Dumbbell d(cfg);
      return d.measure_window(3.0, 5.0);
    };
    const exp::WindowMetrics paper = run(0.35, 170.0);
    EXPECT_GT(paper.early_responses, 0u) << scheme;
    EXPECT_FALSE(run(0.9, 170.0) == paper) << scheme << " beta";
    EXPECT_FALSE(run(0.35, 340.0) == paper) << scheme << " hz";
  }
}

}  // namespace
}  // namespace pert::core
