// PIE AQM — Proportional Integral controller Enhanced (Pan et al.,
// RFC 8033).
//
// PIE controls *latency*, not length: every `tupdate` it estimates the
// queueing delay from the backlog and the drain rate and moves the drop
// probability by
//
//   p += alpha * (qdelay - target) + beta * (qdelay - qdelay_old)
//
// with the step auto-scaled down when p is small so the controller is
// stable across orders of magnitude (RFC 8033 §5.2). Arriving packets are
// dropped with probability p — except during the startup burst allowance,
// when the queue is trivially short, or (with ECN) marked instead while p
// is below `mark_ecnth`.
//
// The drain rate is supplied as `pps` by the topology builder (the sim's
// links have known capacity), standing in for the departure-rate estimator
// of RFC 8033 §4.3.
#pragma once

#include "net/queue.h"
#include "sim/random.h"
#include "sim/timer.h"

namespace pert::net {

struct PieParams {
  double target = 0.015;     ///< queueing-delay target, seconds
  double tupdate = 0.015;    ///< probability update period, seconds
  double alpha = 0.125;      ///< gain on the current delay error
  double beta = 1.25;        ///< gain on the delay trend
  double max_burst = 0.15;   ///< seconds of burst tolerated from idle
  double mark_ecnth = 0.1;   ///< mark (not drop) ECT packets while p below
  bool ecn = true;
  double pps = 0.0;          ///< drain rate, packets/second (required)

  void validate() const {
    sim::require_positive("PieParams", "target", target);
    sim::require_positive("PieParams", "tupdate", tupdate);
    sim::require_positive("PieParams", "alpha", alpha);
    sim::require_positive("PieParams", "beta", beta);
    sim::require_non_negative("PieParams", "max_burst", max_burst);
    sim::require_prob("PieParams", "mark_ecnth", mark_ecnth);
    sim::require_positive("PieParams", "pps", pps);
  }
};

class PieQueue final : public Queue {
 public:
  PieQueue(sim::Scheduler& sched, std::int32_t capacity_pkts, PieParams params,
           sim::Rng rng = sim::Rng(0x91e0011ULL));

  void enqueue(PacketPtr p) override;

  double drop_prob() const noexcept { return drop_prob_; }
  double qdelay_old() const noexcept { return qdelay_old_; }
  double burst_allowance() const noexcept { return burst_allowance_; }
  const PieParams& params() const noexcept { return params_; }

  /// Base checks plus the controller state.
  std::string numeric_violation() const override;

 private:
  /// The tupdate step (RFC 8033 §4.2 with the §5.2 auto-tuned gains).
  void update();
  double queue_delay() const {
    return static_cast<double>(len_pkts()) / params_.pps;
  }

  PieParams params_;
  double drop_prob_ = 0.0;
  double qdelay_old_ = 0.0;
  double burst_allowance_;
  sim::Rng rng_;
  sim::Timer update_timer_;
};

}  // namespace pert::net
