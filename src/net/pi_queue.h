// PI AQM controller (Hollot, Misra, Towsley, Gong — INFOCOM 2001).
//
// The mark probability is driven by a discrete PI controller on the
// *instantaneous* queue length sampled at a fixed frequency:
//
//   p(k) = p(k-1) + a * (q(k) - q_ref) - b * (q(k-1) - q_ref)
//
// with a > b > 0 obtained from the bilinear transform of K(1 + s/m)/s.
// `PiDesign::for_link` computes K and m from the link capacity, the lower
// bound on the number of flows, and the upper bound on RTT, mirroring
// [16, Proposition 2] (C^3 loop gain for a queue-length-based controller).
//
// The law and the design rule are written once here: PERT/PI
// (core/pi_emulation.h) runs the same PiLaw on its queueing-delay estimate
// with coefficients from the same rule at the delay loop gain.
#pragma once

#include <algorithm>
#include <string>

#include "net/queue.h"
#include "sim/random.h"
#include "sim/sentinel.h"
#include "sim/timer.h"

namespace pert::net {

/// The discrete PI law on any congestion signal x (queue length at the
/// router, queueing delay at the end host):
///   p += a * (x - ref) - b * (x_prev - ref), clamped to [0, 1].
class PiLaw {
 public:
  PiLaw(double a, double b, double ref) : a_(a), b_(b), ref_(ref) {}

  /// Feeds one sample; returns the updated probability.
  double update(double x) {
    prob_ += a_ * (x - ref_) - b_ * (prev_ - ref_);
    prob_ = std::clamp(prob_, 0.0, 1.0);
    prev_ = x;
    return prob_;
  }

  double probability() const noexcept { return prob_; }

  /// Numeric sentinel under the caller's names for the probability and the
  /// previous sample: a NaN sample slips through std::clamp (NaN compares
  /// false) and then feeds back through the probability forever. "" while
  /// healthy.
  std::string numeric_violation(const char* prob_name,
                                const char* prev_name) const {
    if (std::string v = sim::bounded_violation(prob_name, prob_, 0.0, 1.0);
        !v.empty())
      return v;
    return sim::finite_violation(prev_name, prev_);
  }

 private:
  double a_;
  double b_;
  double ref_;
  double prob_ = 0.0;
  double prev_ = 0.0;
};

/// Hollot's TCP/PI design rule: the controller zero m = 2N/(R^2 C) cancels
/// the TCP window pole, the gain K = gain_boost * m * sqrt(R^2 m^2 + 1) /
/// loop_gain puts unity loop gain at the crossover w_g ~ m, and the bilinear
/// transform over one sample interval delta gives a = K/m + K delta/2 and
/// b = K/m - K delta/2. `loop_gain` is the plant gain the law sees:
/// R^3 C^3 / (2N)^2 on queue length, R^3 C^2 / (2N)^2 on queueing delay.
struct PiCoefficients {
  double a;
  double b;

  static PiCoefficients design(double capacity_pps, double n_min,
                               double rtt_max, double loop_gain,
                               double interval, double gain_boost = 1.0);
};

struct PiDesign {
  double a = 0.00001822;  ///< coefficient on the current error
  double b = 0.00001816;  ///< coefficient on the previous error
  double q_ref = 50;      ///< target queue length, packets
  double sample_hz = 170; ///< controller sampling frequency

  /// Designs the controller for a link of `capacity_pps` packets/second,
  /// at least `n_min` flows and RTT at most `rtt_max`, targeting `q_ref`:
  /// PiCoefficients::design at the queue-length loop gain R^3 C^3 / (2N)^2.
  static PiDesign for_link(double capacity_pps, double n_min, double rtt_max,
                           double q_ref, double sample_hz = 170);

  /// Rejects out-of-domain coefficients with sim::ConfigError. As with the
  /// end-host emulation, the discretization needs a > b (b itself may be
  /// negative); with a <= b the integrator runs with negative gain.
  void validate() const {
    sim::require_positive("PiDesign", "a", a);
    sim::require_finite("PiDesign", "b", b);
    sim::require_less("PiDesign", "b", b, "a", a);
    sim::require_non_negative("PiDesign", "q_ref", q_ref);
    sim::require_positive("PiDesign", "sample_hz", sample_hz);
  }
};

class PiQueue final : public Queue {
 public:
  PiQueue(sim::Scheduler& sched, std::int32_t capacity_pkts, PiDesign design,
          bool ecn = true, sim::Rng rng = sim::Rng(0x9155eedULL));

  void enqueue(PacketPtr p) override;

  double mark_prob() const noexcept { return law_.probability(); }

  /// Base checks plus the PI integrator state.
  std::string numeric_violation() const override;

 private:
  void sample();

  bool ecn_;
  PiLaw law_;
  double sample_interval_;
  sim::Rng rng_;
  sim::Timer sample_timer_;
};

}  // namespace pert::net
