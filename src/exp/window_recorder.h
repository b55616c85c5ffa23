// WindowRecorder: the one measurement snapshot scenarios take over a window.
//
// Replaces the ad-hoc snapshot fields (q0/l0/acked0 vectors and per-counter
// baselines) each scenario used to carry: begin() snapshots one bottleneck
// queue+link and a set of senders, end() differences the snapshots into a
// WindowMetrics. Series sampled over simulated time go through the
// scenario's obs sampler and probes (obs/probe.h).
#pragma once

#include <cstdint>
#include <vector>

#include "exp/window_metrics.h"
#include "net/link.h"
#include "net/queue.h"
#include "tcp/tcp_sender.h"

namespace pert::exp {

class WindowRecorder {
 public:
  /// Snapshots the window baseline at simulation time `now`. The queue, link
  /// and senders must outlive the recorder's end() call.
  void begin(const net::Queue& queue, const net::Link& link,
             const std::vector<tcp::TcpSender*>& senders, double now);

  /// Differences the current state against the begin() snapshot. Also
  /// refreshes goodputs() (bits/s per sender over the window).
  WindowMetrics end(std::int32_t buffer_pkts, double link_bps, double now);

  /// Per-sender goodput from the last end() call, in begin() sender order.
  const std::vector<double>& goodputs() const noexcept { return goodputs_; }

 private:
  const net::Queue* queue_ = nullptr;
  const net::Link* link_ = nullptr;
  const std::vector<tcp::TcpSender*>* senders_ = nullptr;
  double t0_ = 0.0;
  net::Queue::Stats q0_;
  net::Link::Stats l0_;
  std::vector<std::int64_t> acked0_;
  std::uint64_t early0_ = 0, timeouts0_ = 0, loss0_ = 0;
  std::vector<double> goodputs_;
};

}  // namespace pert::exp
