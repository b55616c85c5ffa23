// REM — Random Exponential Marking (Athuraliya, Low, Li, Yin 2001).
//
// A "price" integrates the mismatch between backlog and target; packets are
// marked with probability 1 - phi^(-price), decoupling the congestion
// measure from the queue length itself. The law is written once here:
// PERT/REM (core/rem_emulation.h) runs the same RemLaw on its
// queueing-delay estimate.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "net/queue.h"
#include "sim/random.h"
#include "sim/sentinel.h"
#include "sim/timer.h"

namespace pert::net {

/// REM's price law on any congestion signal x (backlog at the router,
/// queueing delay at the end host):
///   price = max(0, price + gamma * ((x - ref) + w * (x - x_prev)))
///   p     = 1 - phi^(-price)
/// the backlog mismatch plus an input-rate proxy (the backlog derivative).
class RemLaw {
 public:
  RemLaw(double gamma, double phi, double ref, double rate_weight)
      : gamma_(gamma), phi_(phi), ref_(ref), rate_weight_(rate_weight) {}

  /// Feeds one sample; returns the updated probability.
  double update(double x) {
    price_ = std::max(
        0.0, price_ + gamma_ * ((x - ref_) + rate_weight_ * (x - prev_)));
    prev_ = x;
    prob_ = 1.0 - std::pow(phi_, -price_);
    return prob_;
  }

  double price() const noexcept { return price_; }
  double probability() const noexcept { return prob_; }

  /// Numeric sentinel under the caller's names: the price stays finite, the
  /// probability a probability and the previous sample finite (a NaN sample
  /// poisons all three through max/pow). "" while healthy.
  std::string numeric_violation(const char* price_name, const char* prob_name,
                                const char* prev_name) const {
    if (std::string v = sim::finite_violation(price_name, price_); !v.empty())
      return v;
    if (std::string v = sim::bounded_violation(prob_name, prob_, 0.0, 1.0);
        !v.empty())
      return v;
    return sim::finite_violation(prev_name, prev_);
  }

 private:
  double gamma_;
  double phi_;
  double ref_;
  double rate_weight_;
  double price_ = 0.0;
  double prob_ = 0.0;
  double prev_ = 0.0;
};

struct RemParams {
  double gamma = 0.001;   ///< price gain per sample
  double phi = 1.001;     ///< marking base: p = 1 - phi^(-price)
  double q_ref = 20;      ///< target backlog, packets
  double rate_weight = 0.1;  ///< weight of the backlog-derivative term
  double sample_hz = 500;
  bool ecn = true;

  /// Rejects out-of-domain parameters with sim::ConfigError. phi must
  /// exceed 1: phi = 1 makes the marking probability identically zero and
  /// phi < 1 makes it negative.
  void validate() const {
    sim::require_positive("RemParams", "gamma", gamma);
    sim::require_greater("RemParams", "phi", phi, 1.0);
    sim::require_non_negative("RemParams", "q_ref", q_ref);
    sim::require_non_negative("RemParams", "rate_weight", rate_weight);
    sim::require_positive("RemParams", "sample_hz", sample_hz);
  }
};

class RemQueue final : public Queue {
 public:
  RemQueue(sim::Scheduler& sched, std::int32_t capacity_pkts, RemParams params,
           sim::Rng rng = sim::Rng(0x4e35eedULL));

  void enqueue(PacketPtr p) override;

  double price() const noexcept { return law_.price(); }
  double mark_prob() const noexcept { return law_.probability(); }

  /// Base checks plus the price integrator and marking probability.
  std::string numeric_violation() const override;

 private:
  void sample();

  bool ecn_;
  RemLaw law_;
  double sample_interval_;
  sim::Rng rng_;
  sim::Timer sample_timer_;
};

}  // namespace pert::net
