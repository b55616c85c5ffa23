#include "exp/fuzz/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/pert_params.h"
#include "fluid/pert_model.h"
#include "tcp/tcp_config.h"

namespace pert::exp::fuzz {

namespace {

OracleVerdict inapplicable(std::string why) {
  OracleVerdict v;
  v.applicable = false;
  v.why_inapplicable = std::move(why);
  return v;
}

std::string fmt(const char* pattern, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, pattern, a, b, c);
  return buf;
}

}  // namespace

OracleVerdict check_against_fluid(const Scenario& s,
                                  const WindowMetrics& metrics) {
  // --- Applicability gates: the fluid model covers long-lived PERT flows
  // over a clean single bottleneck, nothing else.
  if (s.topology != Topology::kDumbbell)
    return inapplicable("multi-bottleneck topology");
  if (s.scheme != parse_scheme_spec("pert"))
    return inapplicable("scheme is not plain PERT");
  if (s.has_impairments()) return inapplicable("impairments enabled");
  if (s.num_rev_flows > 0) return inapplicable("reverse traffic present");
  if (s.num_web_sessions > 0) return inapplicable("web background present");
  if (s.nonproactive_fraction > 0)
    return inapplicable("SACK mix present");
  if (s.num_fwd_flows < 4)
    return inapplicable("too few flows for the many-flow fluid limit");

  const tcp::TcpConfig tcp;  // scenarios use the default segment size
  const double capacity_pps =
      s.bottleneck_bps / (8.0 * static_cast<double>(tcp.seg_bytes()));

  fluid::PertModelParams p;
  p.rtt = s.rtt;
  p.capacity = capacity_pps;
  p.n_flows = static_cast<double>(s.num_fwd_flows);
  p.p_max = s.pert_pmax;
  // PERT thresholds are offsets above the propagation RTT; the model's
  // T_min/T_max are the same quantities in queueing-delay space.
  const core::PertParams pert;
  p.t_min = pert.tmin_offset;
  p.t_max = pert.tmax_offset;
  p.alpha = pert.srtt_alpha;
  // One smoothing update per packet: sampling interval ~ inter-packet gap
  // of one flow's share, bounded away from the integrator step.
  p.delta = std::clamp(p.n_flows / capacity_pps, 1e-4, 0.05);

  const fluid::Equilibrium eq = fluid::equilibrium(p);
  // Degenerate equilibria (window below one packet) are outside the
  // model's regime — the discrete simulator cannot track them.
  if (eq.window < 2.0)
    return inapplicable("equilibrium window below two packets");

  OracleVerdict v;
  v.applicable = true;

  // Integrate the DDE from the equilibrium point and take the steady-state
  // prediction as the time-average of the trajectory tail. In much of the
  // sampled parameter space the model settles into a bounded limit cycle
  // rather than the fixed point (Theorem 1 is only sufficient); the cycle's
  // mean still predicts the packet system's mean queueing delay, and the
  // cycle's amplitude widens the tolerance band below.
  const double horizon = std::max(30.0, 200.0 * s.rtt);
  const auto traj = fluid::simulate(p, horizon,
                                    {eq.window, eq.t_queue, eq.t_queue},
                                    1e-3, 0.05);
  v.model_tail_error = fluid::tail_window_error(traj, p);
  const std::size_t tail_start = traj.size() / 2;
  double tq_sum = 0, tq_min = traj.back().tq_inst, tq_max = tq_min;
  double w_sum = 0;
  for (std::size_t i = tail_start; i < traj.size(); ++i) {
    tq_sum += traj[i].tq_inst;
    tq_min = std::min(tq_min, traj[i].tq_inst);
    tq_max = std::max(tq_max, traj[i].tq_inst);
    w_sum += traj[i].window;
  }
  const double n_tail = static_cast<double>(traj.size() - tail_start);
  const double tq_mean = tq_sum / n_tail;
  const double w_mean = w_sum / n_tail;
  // Model-health gate: a limit cycle is usable, a runaway is not. The
  // cycle orbits the equilibrium, so its mean window must stay near W*.
  if (!(std::abs(w_mean - eq.window) < 0.6 * eq.window)) {
    v.applicable = false;
    v.why_inapplicable = fmt(
        "fluid trajectory diverges from equilibrium (mean window %.1f vs "
        "W* %.1f)",
        w_mean, eq.window, 0);
    return v;
  }

  // --- Band 1: steady-state mean queueing delay, one-sided. A congestion
  // response that is too aggressive (dead response curve, mis-scaled
  // thresholds) builds a standing queue far *above* the fluid mean — that
  // is what this band catches. Sitting *below* the fluid mean is not a
  // bug: with large per-flow BDPs the quantized packet system keeps the
  // queue near empty while the link stays busy (better than fluid), and a
  // window collapse shows up in the utilization floor below instead.
  // The band is deliberately wide — this is a bug oracle, not an accuracy
  // benchmark. Floors: several packet times (so coarse regimes with few
  // packets in flight don't false-positive) and the model's own
  // oscillation half-amplitude.
  v.predicted_delay_s = tq_mean;
  v.observed_delay_s = metrics.avg_queue_pkts / capacity_pps;
  v.delay_tolerance_s = std::max({0.8 * v.predicted_delay_s, 0.004,
                                  6.0 / capacity_pps,
                                  0.5 * (tq_max - tq_min)});
  if (v.observed_delay_s - v.predicted_delay_s > v.delay_tolerance_s) {
    v.ok = false;
    v.failure = fmt(
        "queueing delay diverges from fluid equilibrium: observed %.4fs, "
        "predicted %.4fs (tolerance %.4fs)",
        v.observed_delay_s, v.predicted_delay_s, v.delay_tolerance_s);
    return v;
  }

  // --- Band 2: utilization. The fluid model keeps the bottleneck busy at
  // equilibrium; a sender whose decrease policy collapses the window (or
  // whose response curve is dead) shows up here first. Clean long-RTT
  // corners of the sampled space bottom out just under 0.80, the planted
  // broken sender tops out under 0.75 — the floor sits between.
  v.predicted_utilization = 1.0;
  v.utilization_floor = 0.75;
  v.observed_utilization = metrics.utilization;
  if (v.observed_utilization < v.utilization_floor) {
    v.ok = false;
    v.failure = fmt(
        "utilization collapsed: observed %.3f < floor %.3f (fluid predicts "
        "~%.2f)",
        v.observed_utilization, v.utilization_floor, v.predicted_utilization);
  }
  return v;
}

}  // namespace pert::exp::fuzz
