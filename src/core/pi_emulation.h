// PERT/PI: emulating the PI AQM controller from end hosts (Section 6).
//
// The response probability is the router's PI law (net::PiLaw) run on the
// estimated queueing delay instead of the queue length:
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
// multiplied by the link capacity (what Section 6.1 does). Both designs run
// net::PiCoefficients::design; only the loop gain differs.
#pragma once

#include <string>

#include "net/pi_queue.h"
#include "sim/validate.h"

namespace pert::core {

struct PiEmuDesign {
  double a = 0.0;              ///< coefficient on the current delay error
  double b = 0.0;              ///< coefficient on the previous delay error
  double tq_ref = 0.003;       ///< target queueing delay (3 ms in the paper)
  double sample_interval = 1.0 / 170.0;

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
  }
};

/// The controller PertPiSender (core/sampled_pert.h) runs under the names
/// below: net::PiLaw fed queueing delay every sample_interval().
class PiEmulator : public net::PiLaw {
 public:
  using Design = PiEmuDesign;
  static constexpr const char* kCcName = "pert-pi";
  static constexpr const char* kProbSeries = "pert_pi.prob";
  static constexpr const char* kTqSeries = "pert_pi.tq";

  explicit PiEmulator(const PiEmuDesign& d)
      : net::PiLaw(d.a, d.b, d.tq_ref), sample_interval_(d.sample_interval) {}

  double sample_interval() const noexcept { return sample_interval_; }

  std::string numeric_violation() const {
    return net::PiLaw::numeric_violation("pert_pi.prob", "pert_pi.prev_tq");
  }

 private:
  double sample_interval_;
};

}  // namespace pert::core
