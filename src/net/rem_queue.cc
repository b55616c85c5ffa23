#include "net/rem_queue.h"

#include <string>

namespace pert::net {

RemQueue::RemQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                   RemParams params, sim::Rng rng)
    : Queue(sched, capacity_pkts),
      ecn_(params.ecn),
      law_(params.gamma, params.phi, params.q_ref, params.rate_weight),
      sample_interval_(1.0 / params.sample_hz),
      rng_(rng),
      sample_timer_(sched, [this] { sample(); }) {
  params.validate();
  sample_timer_.schedule_in(sample_interval_);
}

std::string RemQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  return law_.numeric_violation("rem.price", "rem.prob", "rem.prev_q");
}

void RemQueue::sample() {
  law_.update(static_cast<double>(len_pkts()));
  sample_timer_.schedule_in(sample_interval_);
}

void RemQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  const double prob = law_.probability();
  if (prob > 0.0 && rng_.bernoulli(prob) && !mark_or_drop(p, ecn_))
    return;
  push(std::move(p));
}

}  // namespace pert::net
