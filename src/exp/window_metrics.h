// Windowed measurement results shared by every scenario.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/validate.h"

namespace pert::exp {

/// Throws sim::ConfigError naming `component` unless a scenario can measure
/// [warmup, warmup + measure]: warmup finite and >= 0, and warmup + measure
/// finite and later than warmup. NaN, inf and a measure too short to move
/// the clock all fail.
inline void require_runnable_window(std::string_view component, double warmup,
                                    double measure) {
  sim::require_non_negative(component, "warmup", warmup);
  sim::require_greater(component, "warmup + measure", warmup + measure,
                       warmup);
}

struct WindowMetrics {
  double duration = 0;
  double avg_queue_pkts = 0;      ///< time-average bottleneck queue (fwd)
  double norm_queue = 0;          ///< avg queue / buffer capacity
  double drop_rate = 0;           ///< drops / arrivals at fwd bottleneck queue
  double utilization = 0;         ///< fwd bottleneck bytes tx / capacity
  double jain = 0;                ///< fairness over fwd long-term goodputs
  double agg_goodput_bps = 0;     ///< sum of fwd long-term goodputs
  std::uint64_t drops = 0;        ///< all causes; split below
  std::uint64_t congestion_drops = 0;  ///< AQM probabilistic (early) drops
  std::uint64_t overflow_drops = 0;    ///< buffer-full (forced) drops
  std::uint64_t injected_drops = 0;    ///< fault-injection / impairment drops
  std::uint64_t ecn_marks = 0;
  std::uint64_t early_responses = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t loss_events = 0;  ///< flow-level fast-retransmit episodes

  /// Exact field-wise equality: used by the runner determinism tests to
  /// assert that thread count / completion order never change results.
  friend bool operator==(const WindowMetrics&, const WindowMetrics&) = default;
};

}  // namespace pert::exp
