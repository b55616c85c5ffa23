// PERT parameters (Section 3 of the paper).
#pragma once

#include "sim/validate.h"

namespace pert::core {

/// What PERT's early response reads (core::early_response). Every PERT
/// sender (pert, pert-pi, pert-rem) keeps its own copy per flow.
struct EarlyResponseParams {
  /// Early-response multiplicative decrease: cwnd *= (1 - early_beta).
  /// 0.35 keeps the bottleneck queue below half of one BDP (eq. (1)).
  double early_beta = 0.35;
  /// Limit proactive reductions to one per RTT (the impact of a response is
  /// not visible earlier).
  bool limit_once_per_rtt = true;
  /// Skip early response while the window is at/below this floor; tiny
  /// windows cannot meaningfully back off and only lose their ACK clock.
  double min_cwnd_for_response = 2.0;
};

/// pert-pi and pert-rem read srtt_alpha and the early-response knobs; the
/// response curve and the Section 7 extensions are pert's alone.
struct PertParams : EarlyResponseParams {
  /// History weight of the smoothed-RTT congestion signal (srtt_0.99).
  double srtt_alpha = 0.99;
  /// Queueing-delay thresholds of the emulated gentle-RED curve, relative to
  /// the propagation-delay estimate (min RTT): T_min = P + 5 ms,
  /// T_max = P + 10 ms in the paper.
  double tmin_offset = 0.005;
  double tmax_offset = 0.010;
  /// Response probability at T_max.
  double pmax = 0.05;
  /// Emulate *gentle* RED: probability ramps p_max -> 1 on [T_max, 2*T_max]
  /// (measured as queueing delay). Non-gentle responds with 1 past T_max.
  bool gentle = true;

  // --- Section 7 extensions (off by default = the paper's scheme) ---
  /// Drive the signal with one-way forward delays instead of RTT, making
  /// the scheme blind to reverse-path congestion.
  bool use_one_way_delay = false;
  /// Self-configuring pro-activeness (analogous to Adaptive RED / [12]):
  /// AIMD-adapt pmax within [pmax_min, pmax_max] to hold the smoothed
  /// queueing delay inside [T_min, T_max].
  bool adaptive_pmax = false;
  double pmax_min = 0.01;
  double pmax_max = 0.5;
  double adapt_interval = 0.5;  ///< seconds between pmax adjustments

  /// Rejects out-of-domain parameters with sim::ConfigError. Called by
  /// every PERT sender at construction; an inverted [T_min, T_max] band or a
  /// probability outside [0, 1] must never reach the response curve.
  void validate() const {
    sim::require_in("PertParams", "srtt_alpha", srtt_alpha, 0.0, 1.0);
    sim::require_less("PertParams", "srtt_alpha", srtt_alpha, "1", 1.0);
    sim::require_positive("PertParams", "tmin_offset", tmin_offset);
    sim::require_positive("PertParams", "tmax_offset", tmax_offset);
    sim::require_less("PertParams", "tmin_offset", tmin_offset, "tmax_offset",
                      tmax_offset);
    sim::require_prob("PertParams", "pmax", pmax);
    sim::require_prob("PertParams", "early_beta", early_beta);
    sim::require_less("PertParams", "early_beta", early_beta, "1", 1.0);
    sim::require_non_negative("PertParams", "min_cwnd_for_response",
                              min_cwnd_for_response);
    sim::require_prob("PertParams", "pmax_min", pmax_min);
    sim::require_prob("PertParams", "pmax_max", pmax_max);
    sim::require_le("PertParams", "pmax_min", pmax_min, "pmax_max", pmax_max);
    sim::require_positive("PertParams", "adapt_interval", adapt_interval);
  }
};

}  // namespace pert::core
