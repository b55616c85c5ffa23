// Shared fixture: a two-node path with a configurable bottleneck queue,
// one TCP sender and one sink.
#pragma once

#include <memory>

#include "net/network.h"
#include "net/red_queue.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"

namespace pert::tcp::testutil {

struct Path {
  net::Network net{1};
  net::Node* a = nullptr;
  net::Node* b = nullptr;
  net::Link* fwd = nullptr;  ///< a -> b (the bottleneck direction)
  TcpSink* sink = nullptr;

  /// rate in bps, one-way delay in seconds, queue capacity in packets.
  Path(double rate_bps, double delay, std::int32_t qcap,
       std::unique_ptr<net::Queue> fwd_queue = nullptr) {
    a = net.add_node();
    b = net.add_node();
    if (!fwd_queue)
      fwd_queue = std::make_unique<net::DropTailQueue>(net.sched(), qcap);
    fwd = net.add_link(a, b, rate_bps, delay, std::move(fwd_queue));
    net.add_link(b, a, rate_bps, delay,
                 std::make_unique<net::DropTailQueue>(net.sched(), 10000));
    net.compute_routes();
  }

  template <class SenderT = TcpSender, class... Extra>
  SenderT* make_sender(TcpConfig cfg = {}, net::FlowId flow = 0,
                       Extra&&... extra) {
    sink = net.add_agent<TcpSink>(b, 100 + flow, net);
    auto* s = net.add_agent<SenderT>(a, 100 + flow, net, cfg, flow,
                                     std::forward<Extra>(extra)...);
    s->connect(b->id(), 100 + flow);
    return s;
  }
};

}  // namespace pert::tcp::testutil
