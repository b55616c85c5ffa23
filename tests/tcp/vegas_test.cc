#include <gtest/gtest.h>

#include <memory>

#include "tcp/vegas.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

using testutil::Path;

TEST(Vegas, HoldsSmallBacklogAtBottleneck) {
  Path p(5e6, 0.02, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(10.0);
  const auto q0 = p.fwd->queue().snapshot();
  p.net.run_until(40.0);
  const auto q1 = p.fwd->queue().snapshot();
  const double avg_q = (q1.len_integral - q0.len_integral) / 30.0;
  // Vegas targets alpha..beta = 1..3 packets in the bottleneck queue.
  EXPECT_GE(avg_q, 0.3);
  EXPECT_LE(avg_q, 8.0);
}

TEST(Vegas, NoLossesInSteadyState) {
  Path p(5e6, 0.02, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(40.0);
  EXPECT_EQ(p.fwd->queue().snapshot().drops, 0u);
  EXPECT_EQ(s->flow_stats().timeouts, 0);
}

TEST(Vegas, HighUtilizationDespiteEarlyBackoff) {
  Path p(5e6, 0.02, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(10.0);
  const auto acked10 = s->acked_bytes();
  p.net.run_until(40.0);
  const double goodput =
      static_cast<double>(s->acked_bytes() - acked10) * 8.0 / 30.0;
  EXPECT_GT(goodput, 0.9 * 5e6 * 1000.0 / 1040.0);
}

TEST(Vegas, BaseRttTracksPropagationDelay) {
  Path p(5e6, 0.03, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(5.0);
  EXPECT_NEAR(s->base_rtt(), 0.060, 0.01);
}

TEST(Vegas, BacklogEstimateWithinTargets) {
  Path p(5e6, 0.02, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(40.0);
  EXPECT_GE(s->last_diff(), 0.0);
  EXPECT_LE(s->last_diff(), 5.0);
}

TEST(Vegas, WindowStabilizesInsteadOfSawtooth) {
  Path p(5e6, 0.02, 500);
  auto* s = p.make_sender<VegasSender>();
  s->start(0.0);
  p.net.run_until(20.0);
  const double w1 = s->cwnd();
  p.net.run_until(25.0);
  const double w2 = s->cwnd();
  p.net.run_until(30.0);
  const double w3 = s->cwnd();
  // Stationary window: changes bounded by a couple packets over seconds.
  EXPECT_NEAR(w2, w1, 3.0);
  EXPECT_NEAR(w3, w2, 3.0);
}

TEST(Vegas, LaterFlowSeesInflatedBaseRtt) {
  // The unfairness mechanism the paper describes: a flow starting against
  // an established Vegas flow over-estimates the propagation delay.
  net::Network net(9);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 5e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 500));
  net.add_link(b, a, 5e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  TcpConfig cfg;
  std::vector<VegasSender*> senders;
  for (int i = 0; i < 2; ++i) {
    net.add_agent<TcpSink>(b, 10 + i, net);
    auto* s = net.add_agent<VegasSender>(a, 10 + i, net, cfg, i);
    s->connect(b->id(), 10 + i);
    senders.push_back(s);
  }
  senders[0]->start(0.0);
  senders[1]->start(20.0);
  net.run_until(60.0);
  // Flow 1 measured its base RTT while flow 0 kept packets queued.
  EXPECT_GE(senders[1]->base_rtt(), senders[0]->base_rtt());
}

}  // namespace
}  // namespace pert::tcp
