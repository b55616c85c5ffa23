#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tcp/tcp_sender.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

using testutil::Path;

TEST(TcpBasic, SlowStartDoublesWindow) {
  Path p(10e6, 0.05, 10000);  // plenty of buffer, RTT 100 ms
  auto* s = p.make_sender();
  s->start(0.0);
  // After ~3 RTTs of slow start from IW=2: cwnd ~ 2 * 2^3 = 16.
  p.net.run_until(0.32);
  EXPECT_GE(s->cwnd(), 12.0);
  EXPECT_LE(s->cwnd(), 40.0);
  EXPECT_EQ(s->flow_stats().loss_events, 0);
}

TEST(TcpBasic, TransferCompletes) {
  Path p(10e6, 0.01, 1000);
  auto* s = p.make_sender();
  bool done = false;
  s->on_transfer_complete = [&] { done = true; };
  s->start_transfer(100);
  p.net.run_until(5.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(s->snd_una(), 100);
  EXPECT_EQ(p.sink->rcv_next(), 100);
}

TEST(TcpBasic, GoodputApproachesLinkRate) {
  Path p(10e6, 0.01, 1000);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(10.0);
  const double goodput = static_cast<double>(s->acked_bytes()) * 8.0 / 10.0;
  // Payload goodput <= line rate * payload fraction (1000/1040).
  EXPECT_GT(goodput, 0.85 * 10e6);
  EXPECT_LT(goodput, 10e6);
}

TEST(TcpBasic, RttEstimateMatchesPath) {
  Path p(10e6, 0.025, 1000);  // RTT = 50 ms + queueing
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(2.0);
  EXPECT_NEAR(s->min_rtt(), 0.050, 0.005);
  EXPECT_GE(s->srtt(), 0.050 - 1e-9);
}

TEST(TcpBasic, NoLossesWithAdequateBuffer) {
  Path p(10e6, 0.02, 100000);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(5.0);
  EXPECT_EQ(s->flow_stats().rexmits, 0);
  EXPECT_EQ(s->flow_stats().timeouts, 0);
}

TEST(TcpBasic, SequencesDeliveredInOrderNoLoss) {
  Path p(5e6, 0.01, 100000);
  auto* s = p.make_sender();
  s->start_transfer(500);
  p.net.run_until(10.0);
  EXPECT_EQ(p.sink->rcv_next(), 500);
  EXPECT_EQ(p.sink->total_rx_pkts(), 500);  // no spurious retransmissions
  EXPECT_EQ(s->flow_stats().data_pkts_sent, 500);
}

TEST(TcpBasic, StopHaltsNewData) {
  Path p(10e6, 0.01, 1000);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(1.0);
  s->stop();
  const auto limit = s->next_seq();  // no *new* sequences beyond this point
  p.net.run_until(3.0);
  EXPECT_EQ(s->next_seq(), limit);
  EXPECT_EQ(s->snd_una(), s->next_seq());  // everything drained
}

TEST(TcpBasic, CongestionAvoidanceLinearGrowth) {
  Path p(10e6, 0.05, 100000);
  TcpConfig cfg;
  cfg.initial_ssthresh = 10;  // force CA quickly
  auto* s = p.make_sender(cfg);
  s->start(0.0);
  p.net.run_until(0.5);
  const double w1 = s->cwnd();
  p.net.run_until(0.5 + 1.0);  // ~10 RTTs of CA
  const double w2 = s->cwnd();
  EXPECT_NEAR(w2 - w1, 10.0, 3.0);  // ~1 packet per RTT
}

TEST(TcpBasic, AckClockKeepsPipeBounded) {
  Path p(1e6, 0.05, 100000);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(5.0);
  EXPECT_LE(s->next_seq() - s->snd_una(),
            static_cast<std::int64_t>(s->cwnd()) + 1);
}

TEST(TcpBasic, TwoFlowsShareFairly) {
  // Two same-RTT flows on one bottleneck should converge to a fair share.
  net::Network net(7);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 10e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 120));
  net.add_link(b, a, 10e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 1000));
  net.compute_routes();
  TcpConfig cfg;
  std::vector<TcpSender*> senders;
  for (int i = 0; i < 2; ++i) {
    net.add_agent<TcpSink>(b, 10 + i, net);
    auto* s = net.add_agent<TcpSender>(a, 10 + i, net, cfg, i);
    s->connect(b->id(), 10 + i);
    s->start(i * 0.1);
    senders.push_back(s);
  }
  net.run_until(30.0);
  std::vector<std::int64_t> at30{senders[0]->acked_bytes(),
                                 senders[1]->acked_bytes()};
  net.run_until(90.0);
  const double g0 = static_cast<double>(senders[0]->acked_bytes() - at30[0]);
  const double g1 = static_cast<double>(senders[1]->acked_bytes() - at30[1]);
  EXPECT_GT(std::min(g0, g1) / std::max(g0, g1), 0.6);
}

}  // namespace
}  // namespace pert::tcp
