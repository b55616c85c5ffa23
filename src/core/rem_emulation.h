// PERT/REM: emulating Random Exponential Marking from end hosts — the
// "other AQM algorithms" generality claim of the paper's abstract and
// conclusions, carried out for REM.
//
// The router REM price integrates gamma*((q - q_ref) + w*(q - q_prev));
// dividing by capacity turns queue lengths into queueing delays, so the
// end-host price uses the srtt_0.99 delay estimate:
//
//   price = max(0, price + gamma_d*((Tq - Tq_ref) + w*(Tq - Tq_prev)))
//   p     = 1 - phi^(-price)
//
// with gamma_d = gamma_router * C (packets/s), exactly the capacity-scaling
// Section 6.1 applies to PI.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/sentinel.h"
#include "sim/validate.h"

namespace pert::core {

struct RemEmuDesign {
  double gamma = 0.0;        ///< price gain per sample, on delay error
  double phi = 1.001;
  double tq_ref = 0.003;     ///< target queueing delay, seconds
  double rate_weight = 0.1;
  double sample_interval = 1.0 / 170.0;
  double early_beta = 0.35;

  /// Router REM parameters scaled by the path capacity (packets/second).
  static RemEmuDesign for_path(double capacity_pps, double gamma_router = 0.001,
                               double tq_ref = 0.003,
                               double sample_hz = 170.0) {
    RemEmuDesign d;
    d.gamma = gamma_router * capacity_pps;
    d.tq_ref = tq_ref;
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
    sim::require_prob("RemEmuDesign", "early_beta", early_beta);
    sim::require_less("RemEmuDesign", "early_beta", early_beta, "1", 1.0);
  }
};

/// The price/probability state machine, reusable outside the sender.
/// PertRemSender (core/sampled_pert.h) runs it under the names below.
class RemEmulator {
 public:
  using Design = RemEmuDesign;
  static constexpr const char* kCcName = "pert-rem";
  static constexpr const char* kComponent = "PertRemSender";
  static constexpr const char* kProbSeries = "pert_rem.prob";
  static constexpr const char* kTqSeries = "pert_rem.tq";

  explicit RemEmulator(const RemEmuDesign& d) : d_(d) {}

  double update(double tq) {
    price_ = std::max(
        0.0, price_ + d_.gamma * ((tq - d_.tq_ref) +
                                  d_.rate_weight * (tq - prev_tq_)));
    prev_tq_ = tq;
    prob_ = 1.0 - std::pow(d_.phi, -price_);
    return prob_;
  }

  double price() const noexcept { return price_; }
  double probability() const noexcept { return prob_; }
  const RemEmuDesign& design() const noexcept { return d_; }

  /// Numeric sentinel: price stays a finite non-negative number and prob a
  /// probability (a NaN delay sample poisons both through max/pow).
  /// "" while healthy.
  std::string numeric_violation() const {
    if (std::string v = sim::finite_violation("pert_rem.price", price_);
        !v.empty())
      return v;
    if (std::string v =
            sim::bounded_violation("pert_rem.prob", prob_, 0.0, 1.0);
        !v.empty())
      return v;
    if (std::string v = sim::finite_violation("pert_rem.prev_tq", prev_tq_);
        !v.empty())
      return v;
    return {};
  }

 private:
  RemEmuDesign d_;
  double price_ = 0.0;
  double prob_ = 0.0;
  double prev_tq_ = 0.0;

  friend class SentinelTestPeer;  // NaN-injection tests for the sentinel layer
};

}  // namespace pert::core
