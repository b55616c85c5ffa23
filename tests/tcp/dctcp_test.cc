// DCTCP characteristic tests: alpha is an EWMA of the observed marked
// fraction, and the ECN response cuts cwnd by alpha/2 — proportional to
// congestion extent, not a fixed halving. The alpha dynamics are driven
// through the ops table directly (the sim's sink echoes ECE with RFC 3168
// latching, so in-sim marked fractions are biased; see cc_dctcp.h).
#include "tcp/cc_dctcp.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/codel_queue.h"
#include "sim/errors.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

using testutil::Path;

CcAck ack(std::int64_t newly, bool ece) {
  CcAck a;
  a.newly = newly;
  a.ece = ece;
  return a;
}

TEST(DctcpParams, RejectsOutOfDomainKnobs) {
  DctcpParams p;
  p.g = 0.0;
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.init_alpha = 2.0;
  EXPECT_THROW(p.validate(), sim::ConfigError);
}

TEST(Dctcp, AlphaDecaysGeometricallyWithoutMarks) {
  Path p(10e6, 0.02, 500);
  auto* s = p.make_sender<DctcpSender>();
  CcHost h(*s);
  // snd_una == window_end on an idle sender, so every ACK closes one
  // observation window: each unmarked window folds frac = 0 into alpha.
  ASSERT_DOUBLE_EQ(s->dctcp().alpha, 1.0);
  s->cc_ops().ack_event(h, s->cc_priv(), ack(10, false));
  EXPECT_DOUBLE_EQ(s->dctcp().alpha, 1.0 - 0.0625);
  s->cc_ops().ack_event(h, s->cc_priv(), ack(10, false));
  EXPECT_DOUBLE_EQ(s->dctcp().alpha, (1.0 - 0.0625) * (1.0 - 0.0625));
}

TEST(Dctcp, AlphaRisesTowardFullyMarked) {
  Path p(10e6, 0.02, 500);
  auto* s = p.make_sender<DctcpSender>();
  CcHost h(*s);
  for (int i = 0; i < 10; ++i)
    s->cc_ops().ack_event(h, s->cc_priv(), ack(10, false));
  const double low = s->dctcp().alpha;
  ASSERT_LT(low, 0.6);
  for (int i = 0; i < 10; ++i)
    s->cc_ops().ack_event(h, s->cc_priv(), ack(10, true));
  EXPECT_GT(s->dctcp().alpha, low);
  EXPECT_LE(s->dctcp().alpha, 1.0);
}

TEST(Dctcp, EcnResponseProportionalToAlpha) {
  Path p(10e6, 0.02, 500);
  auto* s = p.make_sender<DctcpSender>();
  CcHost h(*s);
  // Settle alpha at a known value, then check cwnd *= 1 - alpha/2.
  for (int i = 0; i < 8; ++i)
    s->cc_ops().ack_event(h, s->cc_priv(), ack(10, false));
  const double alpha = s->dctcp().alpha;
  h.cwnd() = 100.0;
  s->cc_ops().on_ecn(h, s->cc_priv());
  EXPECT_DOUBLE_EQ(h.cwnd(), 100.0 * (1.0 - alpha / 2.0));
}

TEST(Dctcp, FirstEcnActsLikeReno) {
  Path p(10e6, 0.02, 500);
  auto* s = p.make_sender<DctcpSender>();
  CcHost h(*s);
  // init_alpha = 1 (conservative start): the first response is a halving.
  h.cwnd() = 100.0;
  s->cc_ops().on_ecn(h, s->cc_priv());
  EXPECT_DOUBLE_EQ(h.cwnd(), 50.0);
}

TEST(Dctcp, InvariantCatchesImpossibleMarkCount) {
  Path p(10e6, 0.02, 500);
  auto* s = p.make_sender<DctcpSender>();
  EXPECT_EQ(s->invariant_violation(), "");
}

TEST(Dctcp, RespondsToMarkingAqmEndToEnd) {
  net::Network net(11);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net::CodelParams cp;  // ecn on: CoDel marks ECT heads instead of dropping
  auto* fwd = net.add_link(
      a, b, 5e6, 0.02, std::make_unique<net::CodelQueue>(net.sched(), 500, cp));
  net.add_link(b, a, 5e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 10000));
  net.compute_routes();
  TcpConfig cfg;
  cfg.ecn = true;
  net.add_agent<TcpSink>(b, 10, net);
  auto* s = net.add_agent<DctcpSender>(a, 10, net, cfg, 0);
  s->connect(b->id(), 10);
  s->start(0.0);
  net.run_until(30.0);

  EXPECT_GT(fwd->queue().snapshot().ecn_marks, 0u)
      << "CoDel should be marking the ECT stream";
  EXPECT_GT(s->flow_stats().ecn_responses, 0);
  EXPECT_LT(s->dctcp().alpha, 1.0) << "alpha should leave its startup value";
  EXPECT_EQ(s->invariant_violation(), "");
  const double goodput = static_cast<double>(s->acked_bytes()) * 8.0 / 30.0;
  EXPECT_GT(goodput, 0.7 * 5e6 * 1000.0 / 1040.0);
}

}  // namespace
}  // namespace pert::tcp
