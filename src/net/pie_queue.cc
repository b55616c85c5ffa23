#include "net/pie_queue.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/sentinel.h"

namespace pert::net {

PieQueue::PieQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                   PieParams params, sim::Rng rng)
    : Queue(sched, capacity_pkts),
      params_(params),
      burst_allowance_(params.max_burst),
      rng_(rng),
      update_timer_(sched, [this] { update(); }) {
  params_.validate();
  update_timer_.schedule_in(params_.tupdate);
}

void PieQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  // RFC 8033 §4.1 safeguards: never punish during the burst allowance, while
  // the controller is quiescent with a short queue, or when the queue could
  // not even hold two packets' worth of work.
  const bool protect =
      burst_allowance_ > 0.0 ||
      (drop_prob_ == 0.0 && queue_delay() < params_.target / 2.0 &&
       qdelay_old_ < params_.target / 2.0) ||
      len_pkts() <= 2;
  if (!protect && drop_prob_ > 0.0 && rng_.bernoulli(drop_prob_) &&
      !mark_or_drop(p, params_.ecn && drop_prob_ < params_.mark_ecnth))
    return;
  push(std::move(p));
}

void PieQueue::update() {
  const double qdelay = queue_delay();
  double step = params_.alpha * (qdelay - params_.target) +
                params_.beta * (qdelay - qdelay_old_);
  // Auto-tune the step to the probability's order of magnitude (§5.2) so the
  // controller neither dawdles at high load nor oscillates near zero.
  if (drop_prob_ < 0.000001)
    step /= 2048.0;
  else if (drop_prob_ < 0.00001)
    step /= 512.0;
  else if (drop_prob_ < 0.0001)
    step /= 128.0;
  else if (drop_prob_ < 0.001)
    step /= 32.0;
  else if (drop_prob_ < 0.01)
    step /= 8.0;
  else if (drop_prob_ < 0.1)
    step /= 2.0;
  drop_prob_ = std::clamp(drop_prob_ + step, 0.0, 1.0);
  // Exponential decay while the queue is idle.
  if (qdelay == 0.0 && qdelay_old_ == 0.0) drop_prob_ *= 0.98;
  qdelay_old_ = qdelay;
  if (burst_allowance_ > 0.0) {
    burst_allowance_ = std::max(0.0, burst_allowance_ - params_.tupdate);
  } else if (drop_prob_ == 0.0 && qdelay < params_.target / 2.0 &&
             qdelay_old_ < params_.target / 2.0) {
    // Queue fully recovered: re-arm the burst allowance (§4.2).
    burst_allowance_ = params_.max_burst;
  }
  update_timer_.schedule_in(params_.tupdate);
}

std::string PieQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  if (std::string v =
          sim::bounded_violation("pie.drop_prob", drop_prob_, 0.0, 1.0);
      !v.empty())
    return v;
  if (std::string v = sim::finite_violation("pie.qdelay_old", qdelay_old_);
      !v.empty())
    return v;
  if (std::string v = sim::finite_violation("pie.burst_allowance",
                                            burst_allowance_);
      !v.empty())
    return v;
  return {};
}

}  // namespace pert::net
