// Tests for the one-way-delay measurement path: the sink stamps its arrival
// clock on every ACK, and the sender hands CC modules the forward delay.
#include <gtest/gtest.h>

#include <memory>
#include <new>

#include "net/network.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"

namespace pert::tcp {
namespace {

TEST(OneWayDelay, SampleMatchesForwardPath) {
  // Asymmetric path: make the reverse direction slow so RTT >> forward OWD.
  net::Network net(5);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 10e6, 0.010,
               std::make_unique<net::DropTailQueue>(net.sched(), 1000));
  net.add_link(b, a, 10e6, 0.090,
               std::make_unique<net::DropTailQueue>(net.sched(), 1000));
  net.compute_routes();
  TcpConfig cfg;
  cfg.max_cwnd = 20;  // keep the forward queue empty (BDP ~ 120 pkts)
  net.add_agent<TcpSink>(b, 5, net);

  // Minimal CC module that just records the latest one-way-delay sample.
  struct OwdState {
    double last_owd = -1;
  };
  CongestionOps probe_ops;
  probe_ops.name = "owd-probe";
  probe_ops.priv_size = sizeof(OwdState);
  probe_ops.init = [](CcHost&, void* priv) { new (priv) OwdState{}; };
  probe_ops.on_owd_sample = [](CcHost&, void* priv, double owd) {
    static_cast<OwdState*>(priv)->last_owd = owd;
  };
  auto* s = net.add_agent<TcpSender>(a, 5, net, cfg, 0, probe_ops);
  s->connect(b->id(), 5);
  s->start(0.0);
  net.run_until(2.0);
  const double last_owd =
      static_cast<const OwdState*>(s->cc_priv())->last_owd;
  // Forward OWD ~ 10 ms (+ tx + queueing); RTT ~ 100 ms.
  ASSERT_GE(last_owd, 0.0);
  EXPECT_LT(last_owd, 0.030);
  EXPECT_GT(s->min_rtt(), 0.095);
}

}  // namespace
}  // namespace pert::tcp
