// PERT/PI: emulating the PI AQM controller from end hosts (Section 6).
//
// The response probability is produced by a discretized PI controller on the
// estimated queueing delay:
//
//   p(k) = p(k-1) + a * (Tq(k) - Tq_ref) - b * (Tq(k-1) - Tq_ref),
//
// the bilinear-transform discretization of C_PI(s) = K (1 + s/m) / s with
// a = K/m + K*delta/2 and b = K/m - K*delta/2 (the paper's eq. (18)-(19);
// note (19) prints the coefficients swapped — a PI controller must weight the
// *current* error with the larger coefficient, otherwise the loop integrates
// with negative gain).
//
// K and m follow Theorem 2: because the controller acts on queueing *delay*,
// the loop gain carries C^2 where the router-based TCP/PI design has C^3 —
// equivalently, the delay-based coefficients are the router coefficients
// multiplied by the link capacity (what Section 6.1 does).
#pragma once

#include <algorithm>
#include <string>

#include "sim/sentinel.h"
#include "sim/validate.h"

namespace pert::core {

struct PiEmuDesign {
  double a = 0.0;              ///< coefficient on the current delay error
  double b = 0.0;              ///< coefficient on the previous delay error
  double tq_ref = 0.003;       ///< target queueing delay (3 ms in the paper)
  double sample_interval = 1.0 / 170.0;
  double early_beta = 0.35;    ///< early-response multiplicative decrease

  /// Theorem 2 design: capacity in packets/second, lower bound on flows,
  /// upper bound on RTT. `gain_boost` scales K above the conservative
  /// unity-crossover design (Theorem 2 leaves ample phase margin; modest
  /// boosts tighten queue convergence without instability).
  static PiEmuDesign for_path(double capacity_pps, double n_min,
                              double rtt_max, double tq_ref = 0.003,
                              double sample_hz = 170.0,
                              double gain_boost = 1.0);

  /// Rejects out-of-domain coefficients with sim::ConfigError. The
  /// discretization requires a > b (see the header comment: the current
  /// error must carry the larger weight or the loop integrates with
  /// negative gain), so an inverted pair is a config error, not a tuning.
  void validate() const {
    sim::require_positive("PiEmuDesign", "a", a);
    sim::require_finite("PiEmuDesign", "b", b);
    sim::require_less("PiEmuDesign", "b", b, "a", a);
    sim::require_positive("PiEmuDesign", "tq_ref", tq_ref);
    sim::require_positive("PiEmuDesign", "sample_interval", sample_interval);
    sim::require_prob("PiEmuDesign", "early_beta", early_beta);
    sim::require_less("PiEmuDesign", "early_beta", early_beta, "1", 1.0);
  }
};

/// The controller itself, reusable outside the sender (tests, fluid checks).
/// PertPiSender (core/sampled_pert.h) runs it under the names below.
class PiEmulator {
 public:
  using Design = PiEmuDesign;
  static constexpr const char* kCcName = "pert-pi";
  static constexpr const char* kComponent = "PertPiSender";
  static constexpr const char* kProbSeries = "pert_pi.prob";
  static constexpr const char* kTqSeries = "pert_pi.tq";

  explicit PiEmulator(const PiEmuDesign& d) : d_(d) {}

  /// Feeds one queueing-delay sample; returns the updated probability.
  double update(double tq) {
    prob_ += d_.a * (tq - d_.tq_ref) - d_.b * (prev_tq_ - d_.tq_ref);
    prob_ = std::clamp(prob_, 0.0, 1.0);
    prev_tq_ = tq;
    return prob_;
  }

  double probability() const noexcept { return prob_; }
  const PiEmuDesign& design() const noexcept { return d_; }

  /// Numeric sentinel: the integrator must hold a probability (a NaN delay
  /// sample slips through std::clamp — NaN compares false — and then feeds
  /// back through prob_ forever). "" while healthy.
  std::string numeric_violation() const {
    if (std::string v = sim::bounded_violation("pert_pi.prob", prob_, 0.0, 1.0);
        !v.empty())
      return v;
    if (std::string v = sim::finite_violation("pert_pi.prev_tq", prev_tq_);
        !v.empty())
      return v;
    return {};
  }

 private:
  PiEmuDesign d_;
  double prob_ = 0.0;
  double prev_tq_ = 0.0;

  friend class SentinelTestPeer;  // NaN-injection tests for the sentinel layer
};

}  // namespace pert::core
