// The srtt_0.99 congestion signal (Section 2.4).
//
// Per-ACK RTT samples smoothed with a heavy-history EWMA; the estimated
// propagation delay is the minimum raw sample, and the queueing-delay
// estimate is their difference. Each PERT module holds its estimator as a
// plain member of its private state (tcp/cc_ops.h), one per flow.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sim/sentinel.h"
#include "stats/stats.h"

namespace pert::core {

class SrttEstimator {
 public:
  explicit SrttEstimator(double alpha = 0.99) : srtt_(alpha) {}

  void add_sample(double rtt) {
    min_ = std::min(min_, rtt);
    srtt_.add(rtt);
  }

  bool ready() const noexcept { return srtt_.seeded(); }
  double srtt() const noexcept { return srtt_.value(); }
  /// Propagation-delay estimate P (minimum observed RTT).
  double prop_delay() const noexcept { return min_; }
  /// Estimated queueing delay: srtt - P (>= 0).
  double queueing_delay() const noexcept {
    return ready() ? std::max(0.0, srtt() - min_) : 0.0;
  }

  /// Numeric sentinel: once seeded, the EWMA and the propagation-delay
  /// estimate must stay finite and non-negative (one absorbed NaN sample
  /// poisons both forever). "" while healthy.
  std::string numeric_violation() const {
    if (!ready()) return {};
    if (std::string v = sim::finite_violation("srtt99", srtt()); !v.empty())
      return v;
    if (!(min_ >= 0.0) || !std::isfinite(min_))
      return "min_rtt corrupt: " + std::to_string(min_);
    return {};
  }

 private:
  stats::Ewma srtt_;
  double min_ = std::numeric_limits<double>::infinity();
};

}  // namespace pert::core
