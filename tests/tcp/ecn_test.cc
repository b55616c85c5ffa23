#include <gtest/gtest.h>

#include <memory>

#include "net/red_queue.h"
#include "tcp/tcp_sender.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

TEST(Ecn, SenderRespondsToMarksWithoutLosses) {
  // Construct path manually so the RED queue uses the path's scheduler.
  net::Network net(3);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net::RedParams rp;
  rp.min_th = 10;
  rp.max_th = 30;
  rp.max_p = 0.1;
  rp.wq = 0.01;
  rp.ecn = true;
  rp.adaptive = false;
  rp.link_rate_pps = 5e6 / (8 * 1040);
  net.add_link(a, b, 5e6, 0.02,
               std::make_unique<net::RedQueue>(net.sched(), 200, rp));
  net.add_link(b, a, 5e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  TcpConfig cfg;
  cfg.ecn = true;
  // Avoid the initial slow-start overshoot outrunning the sluggish RED
  // average (which would cause forced drops before any mark).
  cfg.initial_ssthresh = 20;
  net.add_agent<TcpSink>(b, 5, net);
  auto* s = net.add_agent<TcpSender>(a, 5, net, cfg, 0);
  s->connect(b->id(), 5);
  s->start(0.0);
  net.run_until(30.0);

  EXPECT_GT(s->flow_stats().ecn_responses, 0);
  EXPECT_EQ(s->flow_stats().timeouts, 0);
  // The whole point of ECN: congestion signal without packet drops.
  EXPECT_EQ(s->flow_stats().rexmits, 0);
  // And throughput stays healthy.
  EXPECT_GT(static_cast<double>(s->acked_bytes()) * 8 / 30.0, 0.5 * 5e6);
}

TEST(Ecn, AtMostOneResponsePerWindow) {
  net::Network net(4);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net::RedParams rp;
  rp.min_th = 2;
  rp.max_th = 2000;  // shallow marking onset, wide band: frequent marks
  rp.max_p = 0.9;
  rp.wq = 0.5;
  rp.ecn = true;
  rp.adaptive = false;
  rp.link_rate_pps = 5e6 / (8 * 1040);
  net.add_link(a, b, 5e6, 0.05,
               std::make_unique<net::RedQueue>(net.sched(), 4000, rp));
  net.add_link(b, a, 5e6, 0.05,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  TcpConfig cfg;
  cfg.ecn = true;
  net.add_agent<TcpSink>(b, 5, net);
  auto* s = net.add_agent<TcpSender>(a, 5, net, cfg, 0);
  s->connect(b->id(), 5);
  s->start(0.0);
  const double duration = 20.0;
  net.run_until(duration);
  // Despite near-every-packet marking, responses are limited to one per
  // window (~one per RTT >= 100 ms): <= duration / rtt + slack.
  EXPECT_LE(s->flow_stats().ecn_responses,
            static_cast<std::int64_t>(duration / 0.1) + 5);
  EXPECT_GT(s->flow_stats().ecn_responses, 10);
}

TEST(Ecn, NonEcnSenderGetsDropsFromEcnQueue) {
  net::Network net(5);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net::RedParams rp;
  rp.min_th = 10;
  rp.max_th = 30;
  rp.max_p = 0.1;
  rp.wq = 0.01;
  rp.ecn = true;
  rp.adaptive = false;
  rp.link_rate_pps = 5e6 / (8 * 1040);
  auto red = std::make_unique<net::RedQueue>(net.sched(), 200, rp);
  auto* redq = red.get();
  net.add_link(a, b, 5e6, 0.02, std::move(red));
  net.add_link(b, a, 5e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  TcpConfig cfg;
  cfg.ecn = false;  // not ECN-capable: RED must drop instead of mark
  net.add_agent<TcpSink>(b, 5, net);
  auto* s = net.add_agent<TcpSender>(a, 5, net, cfg, 0);
  s->connect(b->id(), 5);
  s->start(0.0);
  net.run_until(30.0);
  EXPECT_EQ(redq->snapshot().ecn_marks, 0u);
  EXPECT_GT(redq->snapshot().early_drops, 0u);
  EXPECT_EQ(s->flow_stats().ecn_responses, 0);
  EXPECT_GT(s->flow_stats().loss_events, 0);
}

}  // namespace
}  // namespace pert::tcp
