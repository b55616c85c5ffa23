#include "core/pert_sender.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "tcp/tcp_sink.h"

namespace pert::core {
namespace {

struct PertPath {
  net::Network net{11};
  net::Node* a;
  net::Node* b;
  net::Link* fwd;

  PertPath(double rate_bps, double one_way, std::int32_t qcap) {
    a = net.add_node();
    b = net.add_node();
    fwd = net.add_link(a, b, rate_bps, one_way,
                       std::make_unique<net::DropTailQueue>(net.sched(), qcap));
    net.add_link(b, a, rate_bps, one_way,
                 std::make_unique<net::DropTailQueue>(net.sched(), 10000));
    net.compute_routes();
  }

  PertSender* add_pert(int i, PertParams pp = {}) {
    tcp::TcpConfig cfg;
    net.add_agent<tcp::TcpSink>(b, 50 + i, net);
    auto* s = net.add_agent<PertSender>(a, 50 + i, net, cfg, i, pp);
    s->connect(b->id(), 50 + i);
    return s;
  }

  tcp::TcpSender* add_sack(int i) {
    tcp::TcpConfig cfg;
    net.add_agent<tcp::TcpSink>(b, 50 + i, net);
    auto* s = net.add_agent<tcp::TcpSender>(a, 50 + i, net, cfg, i);
    s->connect(b->id(), 50 + i);
    return s;
  }

  double avg_queue(double from, double to) {
    net.run_until(from);
    const auto q0 = fwd->queue().snapshot();
    net.run_until(to);
    const auto q1 = fwd->queue().snapshot();
    return (q1.len_integral - q0.len_integral) / (to - from);
  }
};

TEST(PertSender, KeepsQueueFarBelowDroptailTcp) {
  // Identical scenarios, PERT vs plain SACK; BDP ~ 60 pkts, buffer 600.
  double pert_q, sack_q;
  {
    PertPath p(10e6, 0.025, 600);
    for (int i = 0; i < 4; ++i) p.add_pert(i)->start(i * 0.3);
    pert_q = p.avg_queue(15.0, 40.0);
  }
  {
    PertPath p(10e6, 0.025, 600);
    for (int i = 0; i < 4; ++i) p.add_sack(i)->start(i * 0.3);
    sack_q = p.avg_queue(15.0, 40.0);
  }
  EXPECT_LT(pert_q, sack_q / 3.0);
}

TEST(PertSender, AvoidsLossesWhereSackOverflows) {
  PertPath p(10e6, 0.025, 600);
  std::vector<PertSender*> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(p.add_pert(i));
    senders.back()->start(i * 0.3);
  }
  p.net.run_until(40.0);
  EXPECT_EQ(p.fwd->queue().snapshot().drops, 0u);
  std::int64_t early = 0;
  for (auto* s : senders) early += s->flow_stats().early_responses;
  EXPECT_GT(early, 0);
}

TEST(PertSender, UtilizationStaysHigh) {
  PertPath p(10e6, 0.025, 600);
  for (int i = 0; i < 4; ++i) p.add_pert(i)->start(i * 0.3);
  p.net.run_until(10.0);
  const auto l0 = p.fwd->snapshot();
  p.net.run_until(40.0);
  const auto l1 = p.fwd->snapshot();
  const double util =
      static_cast<double>(l1.bytes_tx - l0.bytes_tx) * 8.0 / (10e6 * 30.0);
  EXPECT_GT(util, 0.85);
}

TEST(PertSender, NoEarlyResponseOnUncongestedPath) {
  PertPath p(100e6, 0.025, 6000);
  tcp::TcpConfig cfg;
  cfg.max_cwnd = 20;  // app/window-limited: queue stays empty
  p.net.add_agent<tcp::TcpSink>(p.b, 50, p.net);
  auto* s = p.net.add_agent<PertSender>(p.a, 50, p.net, cfg, 0, PertParams{});
  s->connect(p.b->id(), 50);
  s->start(0.0);
  p.net.run_until(20.0);
  EXPECT_EQ(s->flow_stats().early_responses, 0);
  EXPECT_NEAR(s->response_probability(), 0.0, 1e-9);
}

TEST(PertSender, OncePerRttLimitBoundsResponses) {
  PertPath p(10e6, 0.025, 600);
  std::vector<PertSender*> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(p.add_pert(i));
    senders.back()->start(i * 0.3);
  }
  const double duration = 40.0;
  p.net.run_until(duration);
  for (auto* s : senders) {
    // RTT >= 50 ms: at most duration/rtt responses (+ slack).
    EXPECT_LE(s->flow_stats().early_responses,
              static_cast<std::int64_t>(duration / 0.050) + 5);
  }
}

TEST(PertSender, EarlyResponseUsesConfiguredBeta) {
  // Run a loss-free PERT-only scenario and check the magnitude of the
  // window cut at an early response: cwnd_after = 0.65 * cwnd_before.
  PertPath p(5e6, 0.025, 600);
  std::vector<PertSender*> senders;
  for (int i = 0; i < 3; ++i) {
    senders.push_back(p.add_pert(i));
    senders.back()->start(i * 0.3);
  }
  PertSender* s = senders[0];
  double ratio = -1;
  std::int64_t seen = 0;
  std::int64_t losses = 0;
  while (p.net.now() < 40.0 && ratio < 0) {
    const double w = s->cwnd();
    p.net.run_until(p.net.now() + 0.0005);
    const auto& st = s->flow_stats();
    if (st.early_responses > seen) {
      seen = st.early_responses;
      // Only accept a clean capture: no concurrent loss activity.
      if (st.loss_events + st.timeouts == losses && !s->in_recovery() &&
          w > 4.0)
        ratio = s->cwnd() / w;
    }
    losses = st.loss_events + st.timeouts;
  }
  ASSERT_GT(ratio, 0.0) << "no clean early response captured";
  EXPECT_NEAR(ratio, 0.65, 0.05);
}

TEST(PertSender, LossStillTriggersStandardRecovery) {
  // Tiny buffer: even PERT cannot always avoid drops; recovery must work.
  PertPath p(5e6, 0.02, 8);
  auto* s = p.add_pert(0);
  s->start(0.0);
  p.net.run_until(20.0);
  EXPECT_GT(s->snd_una(), 1000);  // still makes progress
}

TEST(PertSender, DiagnosticsExposed) {
  PertPath p(10e6, 0.025, 600);
  auto* s = p.add_pert(0);
  s->start(0.0);
  p.net.run_until(5.0);
  EXPECT_TRUE(s->estimator().ready());
  EXPECT_NEAR(s->estimator().prop_delay(), 0.050, 0.01);
  EXPECT_GE(s->response_probability(), 0.0);
  EXPECT_LE(s->response_probability(), 1.0);
}

}  // namespace
}  // namespace pert::core
