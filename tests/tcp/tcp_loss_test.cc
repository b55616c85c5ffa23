#include <gtest/gtest.h>

#include <memory>

#include "tcp/tcp_sender.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

using testutil::Path;

Path small_buffer(std::int32_t qcap = 20) {
  // 5 Mbps, 20 ms one-way -> BDP ~ 24 pkts; qcap below that forces losses.
  return Path(5e6, 0.02, qcap);
}

TEST(TcpLoss, FastRetransmitRecoversWithoutTimeout) {
  Path p = small_buffer();
  auto* s = p.make_sender();
  s->start(0.0);
  // The initial slow-start overshoot may lose most of a window (an RTO
  // there is acceptable); steady-state AIMD cycles must recover purely by
  // fast retransmit.
  p.net.run_until(5.0);
  const auto timeouts_warm = s->flow_stats().timeouts;
  p.net.run_until(30.0);
  EXPECT_GT(s->flow_stats().loss_events, 0);
  EXPECT_GT(s->flow_stats().rexmits, 0);
  EXPECT_EQ(s->flow_stats().timeouts, timeouts_warm);
}

TEST(TcpLoss, DeliveryIsReliableDespiteDrops) {
  Path p = small_buffer(10);
  auto* s = p.make_sender();
  bool done = false;
  s->on_transfer_complete = [&] { done = true; };
  s->start_transfer(5000);
  p.net.run_until(60.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(p.sink->rcv_next(), 5000);
}

TEST(TcpLoss, WindowHalvesOnRecovery) {
  Path p = small_buffer();
  auto* s = p.make_sender();
  double before = 0, after = -1;
  s->on_loss_event = [&](sim::Time) {
    if (after < 0) {
      before = s->cwnd();
      after = 0;  // capture on next check below
    }
  };
  s->start(0.0);
  // Run until first loss event is processed.
  while (after < 0 && p.net.now() < 30.0) p.net.run_until(p.net.now() + 0.01);
  ASSERT_GE(after, 0.0) << "no loss happened";
  p.net.run_until(p.net.now() + 0.001);
  EXPECT_LE(s->cwnd(), before * 0.55 + 1.0);
}

TEST(TcpLoss, SackRetransmitsOnlyHoles) {
  // With SACK, retransmission count over a long run should be close to the
  // number of queue drops (no go-back-N).
  Path p = small_buffer();
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(30.0);
  const auto qdrops = p.fwd->queue().snapshot().drops;
  ASSERT_GT(qdrops, 0u);
  EXPECT_LE(s->flow_stats().rexmits,
            static_cast<std::int64_t>(qdrops) + 3 * s->flow_stats().timeouts +
                s->flow_stats().loss_events);
}

TEST(TcpLoss, RtoFiresOnTotalBlackhole) {
  // Queue of 1 packet at a slow link with a window burst: drops everything
  // beyond the first packet. More robust: kill the route after start.
  Path p(1e6, 0.01, 100);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(0.5);
  // Black-hole the forward path: replace route with a dead end.
  p.a->set_route(p.b->id(), nullptr);
  p.net.run_until(10.0);
  EXPECT_GT(s->flow_stats().timeouts, 0);
  EXPECT_GE(s->rto(), s->config().min_rto);
}

TEST(TcpLoss, RecoveryAfterBlackholeHeals) {
  Path p(1e6, 0.01, 100);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(0.5);
  net::Link* saved = p.a->route(p.b->id());
  p.a->set_route(p.b->id(), nullptr);
  p.net.run_until(3.0);
  p.a->set_route(p.b->id(), saved);  // heal
  const auto una = s->snd_una();
  p.net.run_until(20.0);
  EXPECT_GT(s->snd_una(), una);  // transmission resumed
  // ACKs may still be in flight at the instant we check.
  EXPECT_GE(p.sink->rcv_next(), s->snd_una());
}

TEST(TcpLoss, TimeoutEntersSlowStart) {
  Path p(1e6, 0.01, 100);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(0.5);
  p.a->set_route(p.b->id(), nullptr);
  p.net.run_until(5.0);
  EXPECT_LE(s->cwnd(), 2.0);  // collapsed to 1
}

TEST(TcpLoss, ThroughputScalesInverseSqrtP) {
  // Sanity check of the 1/sqrt(p) law: a path with more drops yields less
  // goodput. Not a tight bound, just monotonicity.
  double goodput[2];
  int qcaps[2] = {30, 6};
  for (int i = 0; i < 2; ++i) {
    Path p(5e6, 0.02, qcaps[i]);
    auto* s = p.make_sender();
    s->start(0.0);
    p.net.run_until(30.0);
    goodput[i] = static_cast<double>(s->acked_bytes());
  }
  EXPECT_GT(goodput[0], goodput[1]);
}

TEST(TcpLoss, NoSpuriousRetransmissionsWithoutDrops) {
  Path p(5e6, 0.02, 100000);
  auto* s = p.make_sender();
  s->start(0.0);
  p.net.run_until(20.0);
  EXPECT_EQ(p.fwd->queue().snapshot().drops, 0u);
  EXPECT_EQ(s->flow_stats().rexmits, 0);
}

}  // namespace
}  // namespace pert::tcp
