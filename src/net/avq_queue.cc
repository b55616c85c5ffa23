#include "net/avq_queue.h"

#include <algorithm>
#include <string>

#include "sim/sentinel.h"

namespace pert::net {

AvqQueue::AvqQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                   double link_bps, AvqParams params)
    : Queue(sched, capacity_pkts),
      params_(params),
      link_bps_(link_bps),
      vcap_bps_(params.gamma * link_bps) {
  params_.validate();
  sim::require_positive("AvqQueue", "link_bps", link_bps);
}

std::string AvqQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  if (std::string v = sim::bounded_violation("avq.vcap_bps", vcap_bps_, 0.0,
                                             link_bps_);
      !v.empty())
    return v;
  if (std::string v = sim::finite_violation("avq.vq_bytes", vq_bytes_);
      !v.empty())
    return v;
  if (std::string v = sim::finite_violation("avq.mean_pkt", mean_pkt_);
      !v.empty())
    return v;
  return {};
}

void AvqQueue::enqueue(PacketPtr p) {
  count_arrival();
  const sim::Time t = now();
  const double dt = t - last_;
  last_ = t;
  mean_pkt_ = 0.99 * mean_pkt_ + 0.01 * p->size_bytes;

  // Drain the virtual queue at the current virtual capacity.
  vq_bytes_ = std::max(0.0, vq_bytes_ - vcap_bps_ / 8.0 * dt);

  const double vbuf_bytes =
      static_cast<double>(capacity_pkts()) * mean_pkt_;
  const bool congested = vq_bytes_ + p->size_bytes > vbuf_bytes;

  // Virtual-capacity adaptation: d(C~)/dt = alpha*(gamma*C - lambda).
  // Integrated over the inter-arrival gap: grow by alpha*gamma*C*dt, shrink
  // by alpha*(bits of this arrival).
  vcap_bps_ += params_.alpha * (params_.gamma * link_bps_ * dt -
                                p->size_bytes * 8.0);
  vcap_bps_ = std::clamp(vcap_bps_, 0.0, link_bps_);

  if (congested) {
    // A mark on a packet the real buffer then drops would be counted twice:
    // an ECT arrival at a full buffer takes the overflow drop below unmarked.
    const bool ect_overflow = full() && params_.ecn && p->ecn == Ecn::Ect0;
    if (!ect_overflow && !mark_or_drop(p, params_.ecn)) return;
  } else {
    vq_bytes_ += p->size_bytes;
  }

  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  push(std::move(p));
}

}  // namespace pert::net
