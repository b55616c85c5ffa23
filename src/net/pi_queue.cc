#include "net/pi_queue.h"

#include <cmath>
#include <string>

namespace pert::net {

PiCoefficients PiCoefficients::design(double capacity_pps, double n_min,
                                      double rtt_max, double loop_gain,
                                      double interval, double gain_boost) {
  const double m = 2.0 * n_min / (rtt_max * rtt_max * capacity_pps);
  const double k =
      gain_boost * m * std::sqrt(rtt_max * rtt_max * m * m + 1.0) / loop_gain;
  return {k / m + k * interval / 2.0, k / m - k * interval / 2.0};
}

PiDesign PiDesign::for_link(double capacity_pps, double n_min, double rtt_max,
                            double q_ref, double sample_hz) {
  sim::require_positive("PiDesign::for_link", "capacity_pps", capacity_pps);
  sim::require_positive("PiDesign::for_link", "n_min", n_min);
  sim::require_positive("PiDesign::for_link", "rtt_max", rtt_max);
  sim::require_non_negative("PiDesign::for_link", "q_ref", q_ref);
  sim::require_positive("PiDesign::for_link", "sample_hz", sample_hz);
  PiDesign d;
  d.q_ref = q_ref;
  d.sample_hz = sample_hz;
  const double loop_gain =
      std::pow(rtt_max, 3) * std::pow(capacity_pps, 3) / (4.0 * n_min * n_min);
  const PiCoefficients c = PiCoefficients::design(
      capacity_pps, n_min, rtt_max, loop_gain, 1.0 / sample_hz);
  d.a = c.a;
  d.b = c.b;
  return d;
}

PiQueue::PiQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                 PiDesign design, bool ecn, sim::Rng rng)
    : Queue(sched, capacity_pkts),
      ecn_(ecn),
      law_(design.a, design.b, design.q_ref),
      sample_interval_(1.0 / design.sample_hz),
      rng_(rng),
      sample_timer_(sched, [this] { sample(); }) {
  design.validate();
  sample_timer_.schedule_in(sample_interval_);
}

std::string PiQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  return law_.numeric_violation("pi.prob", "pi.prev_q");
}

void PiQueue::sample() {
  law_.update(static_cast<double>(len_pkts()));
  sample_timer_.schedule_in(sample_interval_);
}

void PiQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  const double prob = law_.probability();
  if (prob > 0.0 && rng_.bernoulli(prob) && !mark_or_drop(p, ecn_)) return;
  push(std::move(p));
}

}  // namespace pert::net
