#include "net/red_queue.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/sentinel.h"

namespace pert::net {

RedParams RedParams::auto_tuned(std::int32_t cap, double rate_pps,
                                bool ecn_enabled) {
  RedParams p;
  p.min_th = std::max(5.0, cap / 6.0);
  if (cap / 6.0 < 5.0) p.clamps.push_back({"min_th", cap / 6.0, p.min_th});
  p.max_th = std::max(3.0 * p.min_th, cap / 2.0);
  if (cap / 2.0 < 3.0 * p.min_th)
    p.clamps.push_back({"max_th", cap / 2.0, p.max_th});
  p.max_p = 0.10;
  // Floyd 2001: wq = 1 - exp(-1/C), a ~1 s averaging time constant. Rates
  // below 10 pps would push wq toward 1 (no averaging at all); floor them.
  p.wq = 1.0 - std::exp(-1.0 / std::max(rate_pps, 10.0));
  if (rate_pps < 10.0)
    p.clamps.push_back({"wq", 1.0 - std::exp(-1.0 / rate_pps), p.wq});
  p.gentle = true;
  p.ecn = ecn_enabled;
  p.adaptive = true;
  p.link_rate_pps = rate_pps;
  return p;
}

RedQueue::RedQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                   RedParams params, sim::Rng rng)
    : Queue(sched, capacity_pkts),
      params_(params),
      idle_since_(0.0),
      rng_(rng),
      adapt_timer_(sched, [this] { adapt_max_p(); }) {
  params_.validate();
  for (const RedParams::Clamp& c : params_.clamps)
    note_param_clamp(c.param, c.requested, c.used);
  if (params_.adaptive) adapt_timer_.schedule_in(0.5);
}

void RedQueue::update_avg_on_arrival() {
  if (len_pkts() == 0 && idle_since_ != sim::kNever) {
    // Queue has been idle: decay avg as if m small packets had departed.
    const double tx_time = 1.0 / std::max(params_.link_rate_pps, 1.0);
    const double m = (now() - idle_since_) / tx_time;
    avg_ *= std::pow(1.0 - params_.wq, m);
  }
  avg_ = (1.0 - params_.wq) * avg_ + params_.wq * static_cast<double>(len_pkts());
}

double RedQueue::mark_probability() {
  double pb;
  if (avg_ < params_.min_th) return 0.0;
  if (params_.gentle && avg_ >= params_.max_th && avg_ < 2.0 * params_.max_th) {
    pb = params_.max_p +
         (avg_ - params_.max_th) / params_.max_th * (1.0 - params_.max_p);
  } else if (avg_ >= params_.max_th) {
    return 1.0;
  } else {
    pb = params_.max_p * (avg_ - params_.min_th) /
         (params_.max_th - params_.min_th);
  }
  pb = std::clamp(pb, 0.0, 1.0);
  // Uniformize inter-mark gaps (Floyd's count correction).
  if (count_ > 0 && static_cast<double>(count_) * pb < 1.0)
    pb = pb / (1.0 - static_cast<double>(count_) * pb);
  else if (count_ > 0)
    pb = 1.0;
  return std::clamp(pb, 0.0, 1.0);
}

void RedQueue::enqueue(PacketPtr p) {
  count_arrival();
  update_avg_on_arrival();
  idle_since_ = sim::kNever;

  if (full()) {
    count_ = 0;
    drop(std::move(p), DropCause::kOverflow);
    return;
  }

  if (avg_ >= params_.min_th) {
    if (count_ < 0) count_ = 0;
    ++count_;
    const double pa = mark_probability();
    const bool hard = params_.gentle ? avg_ >= 2.0 * params_.max_th
                                     : avg_ >= params_.max_th;
    if (hard || (pa > 0.0 && rng_.bernoulli(pa))) {
      count_ = 0;
      if (!mark_or_drop(p, params_.ecn && !hard)) return;
    }
  } else {
    count_ = -1;
  }
  push(std::move(p));
}

PacketPtr RedQueue::dequeue() {
  PacketPtr p = Queue::dequeue();
  if (len_pkts() == 0) idle_since_ = now();
  return p;
}

std::string RedQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  if (std::string v = sim::finite_violation("red.avg", avg_); !v.empty())
    return v;
  if (std::string v = sim::bounded_violation("red.max_p", params_.max_p, 0.0,
                                             1.0);
      !v.empty())
    return v;
  return {};
}

void RedQueue::adapt_max_p() {
  // Floyd-2001 AIMD steering of max_p to hold avg inside the middle band.
  const double target_lo =
      params_.min_th + 0.4 * (params_.max_th - params_.min_th);
  const double target_hi =
      params_.min_th + 0.6 * (params_.max_th - params_.min_th);
  if (avg_ > target_hi && params_.max_p <= 0.5) {
    params_.max_p += std::min(0.01, params_.max_p / 4.0);
  } else if (avg_ < target_lo && params_.max_p >= 0.01) {
    params_.max_p *= 0.9;
  }
  adapt_timer_.schedule_in(0.5);
}

}  // namespace pert::net
