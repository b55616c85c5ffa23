// PERT/REM: emulating Random Exponential Marking from end hosts — the
// "other AQM algorithms" generality claim of the paper's abstract and
// conclusions, carried out for REM.
//
// The router REM price integrates gamma*((q - q_ref) + w*(q - q_prev));
// dividing by capacity turns queue lengths into queueing delays, so the
// end host runs the same law (net::RemLaw) on the srtt_0.99 delay estimate:
//
//   price = max(0, price + gamma_d*((Tq - Tq_ref) + w*(Tq - Tq_prev)))
//   p     = 1 - phi^(-price)
//
// with gamma_d = gamma_router * C (packets/s), exactly the capacity-scaling
// Section 6.1 applies to PI, and the router's own phi and w.
#pragma once

#include <string>

#include "net/rem_queue.h"
#include "sim/validate.h"

namespace pert::core {

struct RemEmuDesign {
  double gamma = 0.0;        ///< price gain per sample, on delay error
  double phi = 0.0;          ///< marking base
  double tq_ref = 0.003;     ///< target queueing delay, seconds
  double rate_weight = 0.0;  ///< weight of the delay-derivative term
  double sample_interval = 1.0 / 170.0;

  /// The router's REM parameters scaled by the path capacity (packets per
  /// second): gamma times C, the same phi and rate weight.
  static RemEmuDesign for_path(double capacity_pps, double tq_ref = 0.003,
                               double sample_hz = 170.0) {
    const net::RemParams router;
    RemEmuDesign d;
    d.gamma = router.gamma * capacity_pps;
    d.phi = router.phi;
    d.tq_ref = tq_ref;
    d.rate_weight = router.rate_weight;
    d.sample_interval = 1.0 / sample_hz;
    return d;
  }

  /// Rejects out-of-domain parameters with sim::ConfigError.
  void validate() const {
    sim::require_positive("RemEmuDesign", "gamma", gamma);
    sim::require_greater("RemEmuDesign", "phi", phi, 1.0);
    sim::require_positive("RemEmuDesign", "tq_ref", tq_ref);
    sim::require_non_negative("RemEmuDesign", "rate_weight", rate_weight);
    sim::require_positive("RemEmuDesign", "sample_interval", sample_interval);
  }
};

/// The controller PertRemSender (core/sampled_pert.h) runs under the names
/// below: net::RemLaw fed queueing delay every sample_interval().
class RemEmulator : public net::RemLaw {
 public:
  using Design = RemEmuDesign;
  static constexpr const char* kCcName = "pert-rem";
  static constexpr const char* kProbSeries = "pert_rem.prob";
  static constexpr const char* kTqSeries = "pert_rem.tq";

  explicit RemEmulator(const RemEmuDesign& d)
      : net::RemLaw(d.gamma, d.phi, d.tq_ref, d.rate_weight),
        sample_interval_(d.sample_interval) {}

  double sample_interval() const noexcept { return sample_interval_; }

  std::string numeric_violation() const {
    return net::RemLaw::numeric_violation("pert_rem.price", "pert_rem.prob",
                                          "pert_rem.prev_tq");
  }

 private:
  double sample_interval_;
};

}  // namespace pert::core
