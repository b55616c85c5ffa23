// Tests for the Section 7 PERT extensions: one-way-delay signal, adaptive
// pmax, the tiny-window response guard, and the REM emulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/pert_sender.h"
#include "core/rem_emulation.h"
#include "core/sampled_pert.h"
#include "net/network.h"
#include "net/rem_queue.h"
#include "sim/random.h"
#include "tcp/tcp_sink.h"

namespace pert::core {
namespace {

struct TwoWayPath {
  net::Network net{13};
  net::Node* a;
  net::Node* b;
  net::Link* fwd;
  net::Link* rev;

  TwoWayPath(double rate_bps, double one_way, std::int32_t qcap) {
    a = net.add_node();
    b = net.add_node();
    fwd = net.add_link(a, b, rate_bps, one_way,
                       std::make_unique<net::DropTailQueue>(net.sched(), qcap));
    rev = net.add_link(b, a, rate_bps, one_way,
                       std::make_unique<net::DropTailQueue>(net.sched(), qcap));
    net.compute_routes();
  }

  template <class S = PertSender, class... Extra>
  S* add(int i, net::Node* from, net::Node* to, Extra&&... extra) {
    tcp::TcpConfig cfg;
    net.add_agent<tcp::TcpSink>(to, 40 + i, net);
    auto* s = net.add_agent<S>(from, 40 + i, net, cfg, i,
                               std::forward<Extra>(extra)...);
    s->connect(to->id(), 40 + i);
    return s;
  }
};

TEST(PertOwd, IgnoresReversePathCongestion) {
  // Forward PERT flow + heavy reverse traffic congesting the b->a queue.
  // RTT-based PERT backs off (RTT includes reverse queueing); OWD-based
  // PERT does not.
  std::int64_t early[2];
  for (int mode = 0; mode < 2; ++mode) {
    TwoWayPath p(10e6, 0.02, 300);
    PertParams pp;
    pp.use_one_way_delay = mode == 1;
    auto* fwd_flow = p.add<PertSender>(0, p.a, p.b, pp);
    fwd_flow->start(0.0);
    // Reverse load: 3 plain SACK flows b -> a.
    for (int i = 1; i <= 3; ++i) {
      auto* r = p.add<tcp::TcpSender>(i, p.b, p.a);
      r->start(0.5 * i);
    }
    p.net.run_until(40.0);
    early[mode] = fwd_flow->flow_stats().early_responses;
  }
  EXPECT_GT(early[0], 4 * early[1] + 4);  // RTT mode responds far more
}

TEST(PertOwd, StillDetectsForwardCongestion) {
  TwoWayPath p(10e6, 0.02, 300);
  PertParams pp;
  pp.use_one_way_delay = true;
  std::vector<PertSender*> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(p.add<PertSender>(i, p.a, p.b, pp));
    flows.back()->start(0.3 * i);
  }
  p.net.run_until(40.0);
  std::int64_t early = 0;
  for (auto* f : flows) early += f->flow_stats().early_responses;
  EXPECT_GT(early, 0);
  EXPECT_EQ(p.fwd->queue().snapshot().drops, 0u);
}

TEST(PertAdaptive, PmaxDecaysWhenUncongested) {
  TwoWayPath p(50e6, 0.02, 3000);
  PertParams pp;
  pp.adaptive_pmax = true;
  tcp::TcpConfig cfg;
  cfg.max_cwnd = 10;  // keep the link idle
  p.net.add_agent<tcp::TcpSink>(p.b, 40, p.net);
  auto* s = p.net.add_agent<PertSender>(p.a, 40, p.net, cfg, 0, pp);
  s->connect(p.b->id(), 40);
  s->start(0.0);
  p.net.run_until(30.0);
  EXPECT_LT(s->cur_pmax(), PertParams{}.pmax);
  EXPECT_GE(s->cur_pmax(), pp.pmax_min - 1e-12);
}

TEST(PertAdaptive, PmaxRisesUnderPersistentDelay) {
  // Non-responsive delay floor: pair the adaptive PERT flow with plain
  // SACK traffic that keeps the queue (and thus Tq) above T_max.
  TwoWayPath p(10e6, 0.02, 400);
  PertParams pp;
  pp.adaptive_pmax = true;
  auto* s = p.add<PertSender>(0, p.a, p.b, pp);
  s->start(0.0);
  for (int i = 1; i <= 3; ++i) {
    auto* bg = p.add<tcp::TcpSender>(i, p.a, p.b);
    bg->start(0.2 * i);
  }
  p.net.run_until(60.0);
  EXPECT_GT(s->cur_pmax(), PertParams{}.pmax);
  EXPECT_LE(s->cur_pmax(), pp.pmax_max + 1e-12);
}

TEST(PertGuard, NoEarlyResponseAtTinyWindow) {
  TwoWayPath p(10e6, 0.02, 400);
  PertParams pp;
  pp.min_cwnd_for_response = 1e9;  // guard always active
  auto* s = p.add<PertSender>(0, p.a, p.b, pp);
  s->start(0.0);
  for (int i = 1; i <= 3; ++i)
    p.add<tcp::TcpSender>(i, p.a, p.b)->start(0.2 * i);
  p.net.run_until(30.0);
  EXPECT_EQ(s->flow_stats().early_responses, 0);
}

// ---------- REM emulation ----------

TEST(RemEmulator, PriceIntegratesDelayError) {
  RemEmuDesign d = RemEmuDesign::for_path(1000);
  RemEmulator rem(d);
  for (int i = 0; i < 100; ++i) rem.update(0.010);  // above 3 ms target
  EXPECT_GT(rem.price(), 0.0);
  EXPECT_GT(rem.probability(), 0.0);
  EXPECT_LE(rem.probability(), 1.0);
}

TEST(RemEmulator, PriceUnwindsBelowTarget) {
  RemEmuDesign d = RemEmuDesign::for_path(1000);
  RemEmulator rem(d);
  for (int i = 0; i < 100; ++i) rem.update(0.010);
  for (int i = 0; i < 10000; ++i) rem.update(0.0);
  EXPECT_DOUBLE_EQ(rem.price(), 0.0);
  EXPECT_DOUBLE_EQ(rem.probability(), 0.0);
}

TEST(RemEmulator, CapacityScalingMatchesRouterForm) {
  // Section 6.1's scaling against the router's own REM at matched
  // parameters (q_ref = C * tq_ref): the end host's gamma is the router's
  // times C with the same phi and rate weight, so the one REM law fed q_k at
  // the router and q_k / C at the end host prices every sample alike.
  const double tq_ref = 0.003;
  sim::Rng rng(7);
  for (const double c : {500.0, 6000.0, 30000.0}) {
    net::RemParams router;
    router.q_ref = c * tq_ref;
    const RemEmuDesign host = RemEmuDesign::for_path(c, tq_ref);
    EXPECT_NEAR(host.gamma / router.gamma, c, c * 1e-12);
    EXPECT_EQ(host.phi, router.phi);
    EXPECT_EQ(host.rate_weight, router.rate_weight);
    net::RemLaw router_law(router.gamma, router.phi, router.q_ref,
                           router.rate_weight);
    RemEmulator host_law(host);
    double max_p = 0.0;
    for (int k = 0; k < 5000; ++k) {
      const double q = rng.uniform(0.5, 3.0) * router.q_ref;
      const double p = router_law.update(q);
      ASSERT_NEAR(host_law.update(q / c), p, 1e-12) << "C=" << c << " k=" << k;
      max_p = std::max(max_p, p);
    }
    EXPECT_GT(max_p, 1e-3) << "C=" << c;  // the price rose off zero
  }
}

TEST(PertRem, KeepsQueueLowWithoutLosses) {
  TwoWayPath p(10e6, 0.025, 600);
  const double pps = 10e6 / (8 * 1040);
  const RemEmuDesign d = RemEmuDesign::for_path(pps, 0.005);
  std::vector<PertRemSender*> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(p.add<PertRemSender>(i, p.a, p.b, d));
    flows.back()->start(0.3 * i);
  }
  p.net.run_until(15.0);
  const auto q0 = p.fwd->queue().snapshot();
  const auto l0 = p.fwd->snapshot();
  p.net.run_until(60.0);
  const auto q1 = p.fwd->queue().snapshot();
  const auto l1 = p.fwd->snapshot();
  const double avg_q = (q1.len_integral - q0.len_integral) / 45.0;
  const double util =
      static_cast<double>(l1.bytes_tx - l0.bytes_tx) * 8 / (10e6 * 45.0);
  EXPECT_EQ(q1.drops, 0u);
  EXPECT_LT(avg_q, 120.0);  // far below the 600-pkt buffer
  EXPECT_GT(util, 0.7);
  std::int64_t early = 0;
  for (auto* f : flows) early += f->flow_stats().early_responses;
  EXPECT_GT(early, 0);
}

}  // namespace
}  // namespace pert::core
