#include "exp/window_recorder.h"

#include "stats/stats.h"

namespace pert::exp {

void WindowRecorder::begin(const net::Queue& queue, const net::Link& link,
                           const std::vector<tcp::TcpSender*>& senders,
                           double now) {
  queue_ = &queue;
  link_ = &link;
  senders_ = &senders;
  t0_ = now;
  q0_ = queue.snapshot();
  l0_ = link.snapshot();
  acked0_.clear();
  acked0_.reserve(senders.size());
  early0_ = timeouts0_ = loss0_ = 0;
  for (const tcp::TcpSender* s : senders) {
    acked0_.push_back(s->acked_bytes());
    early0_ += static_cast<std::uint64_t>(s->flow_stats().early_responses);
    timeouts0_ += static_cast<std::uint64_t>(s->flow_stats().timeouts);
    loss0_ += static_cast<std::uint64_t>(s->flow_stats().loss_events);
  }
}

WindowMetrics WindowRecorder::end(std::int32_t buffer_pkts, double link_bps,
                                  double now) {
  const double measure = now - t0_;
  const net::Queue::Stats q1 = queue_->snapshot();
  const net::Link::Stats l1 = link_->snapshot();

  WindowMetrics m;
  m.duration = measure;
  m.avg_queue_pkts = (q1.len_integral - q0_.len_integral) / measure;
  m.norm_queue = m.avg_queue_pkts / buffer_pkts;
  const std::uint64_t arrivals = q1.arrivals - q0_.arrivals;
  m.drops = q1.drops - q0_.drops;
  m.congestion_drops = q1.early_drops - q0_.early_drops;
  m.overflow_drops = q1.forced_drops - q0_.forced_drops;
  m.injected_drops = q1.injected_drops - q0_.injected_drops;
  m.drop_rate = arrivals == 0 ? 0.0
                              : static_cast<double>(m.drops) /
                                    static_cast<double>(arrivals);
  m.utilization = static_cast<double>(l1.bytes_tx - l0_.bytes_tx) * 8.0 /
                  (link_bps * measure);
  m.ecn_marks = q1.ecn_marks - q0_.ecn_marks;

  goodputs_.clear();
  std::uint64_t early1 = 0, timeouts1 = 0, loss1 = 0;
  // Senders added after begin() (dynamic-arrival experiments) have no
  // baseline; they join the accounting at the next begin().
  for (std::size_t i = 0; i < acked0_.size() && i < senders_->size(); ++i) {
    const tcp::TcpSender* s = (*senders_)[i];
    goodputs_.push_back(
        static_cast<double>(s->acked_bytes() - acked0_[i]) * 8.0 / measure);
    early1 += static_cast<std::uint64_t>(s->flow_stats().early_responses);
    timeouts1 += static_cast<std::uint64_t>(s->flow_stats().timeouts);
    loss1 += static_cast<std::uint64_t>(s->flow_stats().loss_events);
  }
  m.early_responses = early1 - early0_;
  m.timeouts = timeouts1 - timeouts0_;
  m.loss_events = loss1 - loss0_;
  m.jain = stats::jain_index(goodputs_);
  for (double g : goodputs_) m.agg_goodput_bps += g;
  return m;
}

}  // namespace pert::exp
