#include "core/pi_emulation.h"

#include <cmath>

namespace pert::core {

PiEmuDesign PiEmuDesign::for_path(double capacity_pps, double n_min,
                                  double rtt_max, double tq_ref,
                                  double sample_hz, double gain_boost) {
  sim::require_positive("PiEmuDesign::for_path", "capacity_pps", capacity_pps);
  sim::require_positive("PiEmuDesign::for_path", "n_min", n_min);
  sim::require_positive("PiEmuDesign::for_path", "rtt_max", rtt_max);
  sim::require_positive("PiEmuDesign::for_path", "tq_ref", tq_ref);
  sim::require_positive("PiEmuDesign::for_path", "sample_hz", sample_hz);
  sim::require_positive("PiEmuDesign::for_path", "gain_boost", gain_boost);
  PiEmuDesign d;
  d.tq_ref = tq_ref;
  d.sample_interval = 1.0 / sample_hz;
  // Theorem 2 (eq. (21)): the delay-based loop gain carries C^2, not C^3 as
  // in router TCP/PI.
  const double loop_gain = std::pow(rtt_max, 3) * capacity_pps *
                           capacity_pps / (4.0 * n_min * n_min);
  const net::PiCoefficients c = net::PiCoefficients::design(
      capacity_pps, n_min, rtt_max, loop_gain, d.sample_interval, gain_boost);
  d.a = c.a;
  d.b = c.b;
  return d;
}

}  // namespace pert::core
