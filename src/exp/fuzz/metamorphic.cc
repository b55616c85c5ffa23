#include "exp/fuzz/metamorphic.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "runner/seed.h"

namespace pert::exp::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time added to every start in the shift twin. A multiple of every
/// periodic-controller interval in the tree (RED adapts every 0.5 s, the
/// PI/REM samplers run at integer Hz), so controllers anchored at t = 0
/// keep their phase relative to the shifted traffic.
constexpr double kShift = 8.0;

/// Flow-id offset in the relabel twin.
constexpr std::int32_t kRelabelBase = 4096;

struct RunOutcome {
  bool ok = false;
  WindowMetrics metrics;
  std::string error;
};

RunOutcome run_dumbbell(const DumbbellConfig& cfg, double warmup,
                        double measure) {
  RunOutcome out;
  try {
    Dumbbell d(cfg);
    out.metrics = d.measure_window(warmup, measure);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

RunOutcome run_baseline(const Scenario& s) {
  RunOutcome out;
  try {
    out.metrics = run_scenario(s).metrics;
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::string fmt_num(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

/// "" when equal; otherwise the first differing field, for the failure
/// detail. Field-wise so the report names the metric, unlike operator==.
std::string diff_exact(const WindowMetrics& a, const WindowMetrics& b) {
  auto d = [](const char* name, double x, double y) {
    return std::string(name) + ": " + fmt_num(x) + " vs " + fmt_num(y);
  };
  auto u = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return std::string(name) + ": " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  if (a.drops != b.drops) return u("drops", a.drops, b.drops);
  if (a.congestion_drops != b.congestion_drops)
    return u("congestion_drops", a.congestion_drops, b.congestion_drops);
  if (a.overflow_drops != b.overflow_drops)
    return u("overflow_drops", a.overflow_drops, b.overflow_drops);
  if (a.injected_drops != b.injected_drops)
    return u("injected_drops", a.injected_drops, b.injected_drops);
  if (a.ecn_marks != b.ecn_marks) return u("ecn_marks", a.ecn_marks, b.ecn_marks);
  if (a.early_responses != b.early_responses)
    return u("early_responses", a.early_responses, b.early_responses);
  if (a.timeouts != b.timeouts) return u("timeouts", a.timeouts, b.timeouts);
  if (a.loss_events != b.loss_events)
    return u("loss_events", a.loss_events, b.loss_events);
  if (a.avg_queue_pkts != b.avg_queue_pkts)
    return d("avg_queue_pkts", a.avg_queue_pkts, b.avg_queue_pkts);
  if (a.utilization != b.utilization)
    return d("utilization", a.utilization, b.utilization);
  if (a.jain != b.jain) return d("jain", a.jain, b.jain);
  if (a.agg_goodput_bps != b.agg_goodput_bps)
    return d("agg_goodput_bps", a.agg_goodput_bps, b.agg_goodput_bps);
  if (a.drop_rate != b.drop_rate) return d("drop_rate", a.drop_rate, b.drop_rate);
  if (a.norm_queue != b.norm_queue)
    return d("norm_queue", a.norm_queue, b.norm_queue);
  return {};
}

bool near(double a, double b, double abs_tol, double rel_tol) {
  return std::abs(a - b) <=
         abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
}

/// Tolerance comparison for the shift twin: the shift changes event times
/// by ulps, and the packet system amplifies that into trajectory noise, so
/// only aggregate behavior is comparable. Bands are wide enough for that
/// noise and narrow enough that a flow cohort failing to start, a stuck
/// controller, or an unshifted absolute-time anchor all land far outside.
/// Goodput gets an absolute band proportional to link capacity (like the
/// utilization band): on a starved scenario the aggregate is a sliver of
/// the link, and a purely relative test would flag noise worth ~1% of
/// capacity as a 25% "divergence".
std::string diff_shifted(const WindowMetrics& a, const WindowMetrics& b,
                         double capacity_bps) {
  auto fail = [](const char* name, double x, double y) {
    return std::string(name) + ": " + fmt_num(x) + " vs " + fmt_num(y);
  };
  if (!near(a.utilization, b.utilization, 0.12, 0.0))
    return fail("utilization", a.utilization, b.utilization);
  // Droptail sawtooths under global synchronization make the window-average
  // queue phase-sensitive: a 4 s window covers a handful of cycles, and the
  // shift changes which part of the sawtooth the window sees. Observed
  // honest drift reaches ~0.26; a stuck or runaway queue diverges by 0.7+.
  if (!near(a.norm_queue, b.norm_queue, 0.35, 0.0))
    return fail("norm_queue", a.norm_queue, b.norm_queue);
  if (!near(a.drop_rate, b.drop_rate, 0.05, 0.0))
    return fail("drop_rate", a.drop_rate, b.drop_rate);
  if (!near(a.jain, b.jain, 0.30, 0.0))
    return fail("jain", a.jain, b.jain);
  if (!near(a.agg_goodput_bps, b.agg_goodput_bps, 0.12 * capacity_bps, 0.15))
    return fail("agg_goodput_bps", a.agg_goodput_bps, b.agg_goodput_bps);
  return {};
}

/// Comparison for the k = 2 rescale twin. Every time halving and rate
/// doubling is an exact IEEE-754 exponent shift, and every control law in
/// the covered schemes is scale-free, so the twin replays the identical
/// packet sequence: counters must match exactly; dimensionless metrics and
/// the doubled goodput get a tiny tolerance so an implementation detail
/// that reassociates a sum differently does not flag a false symmetry break.
std::string diff_rescaled(const WindowMetrics& full, const WindowMetrics& half) {
  auto u = [](const char* name, std::uint64_t x, std::uint64_t y) {
    return std::string(name) + ": " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  auto fail = [](const char* name, double x, double y) {
    return std::string(name) + ": " + fmt_num(x) + " vs " + fmt_num(y);
  };
  if (full.drops != half.drops) return u("drops", full.drops, half.drops);
  if (full.congestion_drops != half.congestion_drops)
    return u("congestion_drops", full.congestion_drops, half.congestion_drops);
  if (full.overflow_drops != half.overflow_drops)
    return u("overflow_drops", full.overflow_drops, half.overflow_drops);
  if (full.injected_drops != half.injected_drops)
    return u("injected_drops", full.injected_drops, half.injected_drops);
  if (full.early_responses != half.early_responses)
    return u("early_responses", full.early_responses, half.early_responses);
  if (full.timeouts != half.timeouts)
    return u("timeouts", full.timeouts, half.timeouts);
  if (full.loss_events != half.loss_events)
    return u("loss_events", full.loss_events, half.loss_events);
  const double kRel = 1e-9;
  if (!near(full.avg_queue_pkts, half.avg_queue_pkts, 1e-9, kRel))
    return fail("avg_queue_pkts", full.avg_queue_pkts, half.avg_queue_pkts);
  if (!near(full.utilization, half.utilization, 1e-12, kRel))
    return fail("utilization", full.utilization, half.utilization);
  if (!near(full.jain, half.jain, 1e-12, kRel))
    return fail("jain", full.jain, half.jain);
  if (!near(full.drop_rate, half.drop_rate, 1e-12, kRel))
    return fail("drop_rate", full.drop_rate, half.drop_rate);
  if (!near(2.0 * full.agg_goodput_bps, half.agg_goodput_bps, 1e-3, kRel))
    return fail("agg_goodput_bps (x2)", 2.0 * full.agg_goodput_bps,
                half.agg_goodput_bps);
  return {};
}

/// The rescale relation only covers schemes whose control laws are
/// dimensionless in the scaled quantities. The router-AQM discretizations
/// (RED's auto-tuned wq, the PI/REM/AVQ gain designs) re-derive their
/// constants from the link rate, so halving time changes their difference
/// equations — their scaling behavior is pinned by unit tests instead.
bool rescalable_scheme(const SchemeSpec& s) {
  return s == parse_scheme_spec("pert") || s == parse_scheme_spec("sack");
}

/// The dumbbell builder floors the access-link delay at 0.5 ms and the
/// access rate at 10 Mbps (see Dumbbell::add_flow_path). A floor that binds
/// produces the *same* access link in both twins where exact scaling needs
/// a halved/doubled one, so scenarios near the floors are out of domain.
/// Access delay is 0.075 * rtt (one-way budget minus the 0.2 * rtt
/// bottleneck share, split over two access links) and must clear the floor
/// in the halved twin; the access rate is 4x the bottleneck and must clear
/// its floor already in the original (the doubled twin then clears it too).
bool rescalable_dimensions(const Scenario& s) {
  return s.bottleneck_bps * 4.0 >= 10e6 &&
         0.075 * (0.5 * s.rtt) >= 0.0005;
}

Scenario rescaled_scenario(const Scenario& s) {
  Scenario out = s;
  out.bottleneck_bps *= 2.0;
  out.rtt *= 0.5;
  out.start_window *= 0.5;
  out.warmup *= 0.5;
  out.measure *= 0.5;
  out.jitter_max_delay *= 0.5;
  out.reorder_max_delay *= 0.5;
  out.flap_first_down *= 0.5;
  out.flap_down_for *= 0.5;
  out.flap_period *= 0.5;
  return out;
}

/// Halves every config-level time constant the scenario mapping does not
/// cover (protocol timers, PERT's delay thresholds, web think times).
void halve_config_times(DumbbellConfig& cfg) {
  cfg.tcp.min_rto *= 0.5;
  cfg.tcp.max_rto *= 0.5;
  cfg.tcp.initial_rto *= 0.5;
  cfg.pert.tmin_offset *= 0.5;
  cfg.pert.tmax_offset *= 0.5;
  cfg.pert.adapt_interval *= 0.5;
  cfg.web.think_mean *= 0.5;
  cfg.pi_target_delay *= 0.5;
  cfg.pert_pi_sample_hz *= 2.0;
}

}  // namespace

std::vector<RelationResult> check_relations(const Scenario& s) {
  std::vector<RelationResult> results;
  const RunOutcome base = run_baseline(s);
  if (!base.ok) {
    // The scenario itself fails — that is the plain fuzzer's violation
    // taxonomy, but surface it here too so corner scenarios run through
    // the metamorphic driver cannot crash silently.
    results.push_back({"baseline", true, false, base.error});
    return results;
  }

  const bool dumbbell = s.topology == Topology::kDumbbell;

  // --- seed-stream: fully observed twin must be byte-identical ---
  {
    RelationResult r{"seed-stream", true, true, ""};
    if (dumbbell) {
      DumbbellConfig cfg = to_dumbbell(s);
      cfg.obs.trace.enabled = true;
      cfg.obs.metrics = true;
      const RunOutcome twin = run_dumbbell(cfg, s.warmup, s.measure);
      if (!twin.ok) {
        r.ok = false;
        r.detail = "observed twin threw: " + twin.error;
      } else if (std::string d = diff_exact(base.metrics, twin.metrics);
                 !d.empty()) {
        r.ok = false;
        r.detail = "observed twin diverged: " + d;
      }
    } else {
      try {
        MultiBottleneckConfig cfg = to_multi_bottleneck(s);
        cfg.obs.trace.enabled = true;
        cfg.obs.metrics = true;
        MultiBottleneck mb(cfg);
        // Folded as run_scenario folds base: the most loaded hop.
        const WindowMetrics folded = most_loaded_hop(
            mb.measure_window(s.warmup, s.measure), s.measure);
        if (std::string d = diff_exact(base.metrics, folded); !d.empty()) {
          r.ok = false;
          r.detail = "observed chain twin diverged: " + d;
        }
      } catch (const std::exception& e) {
        r.ok = false;
        r.detail = "observed twin threw: " + std::string(e.what());
      }
    }
    results.push_back(std::move(r));
  }

  // --- time-shift: everything 8 s later, same shifted window ---
  {
    RelationResult r{"time-shift", dumbbell, true, ""};
    if (dumbbell) {
      DumbbellConfig cfg = to_dumbbell(s);
      cfg.start_offset = kShift;
      if (s.has_flaps()) cfg.impair.flap.first_down += kShift;
      const RunOutcome twin = run_dumbbell(cfg, s.warmup + kShift, s.measure);
      if (!twin.ok) {
        r.ok = false;
        r.detail = "shifted twin threw: " + twin.error;
      } else if (std::string d = diff_shifted(base.metrics, twin.metrics,
                                              s.bottleneck_bps);
                 !d.empty()) {
        r.ok = false;
        r.detail = "shifted twin outside tolerance: " + d;
      }
    }
    results.push_back(std::move(r));
  }

  // --- relabel: flow ids offset by a constant, byte-identical ---
  {
    RelationResult r{"relabel", dumbbell, true, ""};
    if (dumbbell) {
      DumbbellConfig cfg = to_dumbbell(s);
      cfg.flow_id_base = kRelabelBase;
      const RunOutcome twin = run_dumbbell(cfg, s.warmup, s.measure);
      if (!twin.ok) {
        r.ok = false;
        r.detail = "relabeled twin threw: " + twin.error;
      } else if (std::string d = diff_exact(base.metrics, twin.metrics);
                 !d.empty()) {
        r.ok = false;
        r.detail = "relabeled twin diverged: " + d;
      }
    }
    results.push_back(std::move(r));
  }

  // --- rescale: k = 2 time/rate scaling, packet-for-packet replay ---
  {
    RelationResult r{"rescale",
                     dumbbell && rescalable_scheme(s.scheme) &&
                         rescalable_dimensions(s),
                     true, ""};
    if (r.applicable) {
      DumbbellConfig cfg = to_dumbbell(rescaled_scenario(s));
      halve_config_times(cfg);
      const RunOutcome twin =
          run_dumbbell(cfg, 0.5 * s.warmup, 0.5 * s.measure);
      if (!twin.ok) {
        r.ok = false;
        r.detail = "rescaled twin threw: " + twin.error;
      } else if (std::string d = diff_rescaled(base.metrics, twin.metrics);
                 !d.empty()) {
        r.ok = false;
        r.detail = "rescaled twin diverged: " + d;
      }
    }
    results.push_back(std::move(r));
  }

  return results;
}

std::vector<Scenario> corner_scenarios(std::uint64_t base_seed) {
  auto corner = [base_seed](const char* name) {
    Scenario s;
    s.seed = runner::derive_seed(base_seed, std::string("corner/") + name);
    s.start_window = 1.0;
    s.warmup = 6.0;
    s.measure = 4.0;
    return s;
  };
  std::vector<Scenario> out;

  // One-packet buffer: every burst overflows; exercises the forced-drop
  // path and RTO recovery with no queueing headroom at all.
  {
    Scenario s = corner("one-packet-buffer");
    s.bottleneck_bps = 10e6;
    s.num_fwd_flows = 4;
    s.buffer_pkts = 1;
    out.push_back(s);
  }
  // Near-zero RTT: sub-millisecond propagation; timers and EWMAs run at
  // the resolution floor where rounding bugs live.
  {
    Scenario s = corner("near-zero-rtt");
    s.bottleneck_bps = 8e6;
    s.rtt = 0.002;
    s.num_fwd_flows = 4;
    out.push_back(s);
  }
  // Huge RTT: one-second paths; windows must grow enormous before the
  // pipe fills, and every feedback loop runs three orders of magnitude
  // slower than the defaults.
  {
    Scenario s = corner("huge-rtt");
    s.bottleneck_bps = 20e6;
    s.rtt = 1.0;
    s.num_fwd_flows = 4;
    s.warmup = 20.0;
    s.measure = 8.0;
    out.push_back(s);
  }
  // One fat flow: 1 Gbps to a single sender; the window and the byte
  // counters take their largest values per simulated second.
  {
    Scenario s = corner("one-gbps-one-flow");
    s.bottleneck_bps = 1e9;
    s.num_fwd_flows = 1;
    s.warmup = 4.0;
    s.measure = 2.0;
    out.push_back(s);
  }
  // Starvation: 10 kbps shared by 100 flows; about one packet per second
  // total, so every flow lives in timeout-driven recovery forever.
  {
    Scenario s = corner("ten-kbps-hundred-flows");
    s.bottleneck_bps = 10e3;
    s.num_fwd_flows = 100;
    s.warmup = 30.0;
    s.measure = 20.0;
    out.push_back(s);
  }
  // Back-to-back flaps: the bottleneck drops every half second for a
  // tenth of a second, ten times in a row across the window boundary.
  {
    Scenario s = corner("back-to-back-flaps");
    s.bottleneck_bps = 10e6;
    s.num_fwd_flows = 6;
    s.flap_first_down = 5.5;
    s.flap_down_for = 0.1;
    s.flap_period = 0.5;
    s.flap_count = 10;
    out.push_back(s);
  }
  return out;
}

MetamorphicSummary run_metamorphic(const MetamorphicOptions& opts) {
  MetamorphicSummary summary;
  const auto t0 = Clock::now();

  auto check_one = [&](const Scenario& s, const char* label) {
    ++summary.scenarios_run;
    for (RelationResult& r : check_relations(s)) {
      if (!r.applicable) continue;
      ++summary.relations_checked;
      if (opts.verbose)
        std::fprintf(stderr, "  metamorphic[%s] seed=%llu %s: %s%s%s\n", label,
                     static_cast<unsigned long long>(s.seed),
                     r.relation.c_str(), r.ok ? "ok" : "FAIL",
                     r.detail.empty() ? "" : " — ", r.detail.c_str());
      if (!r.ok) summary.failures.push_back({s, std::move(r)});
    }
  };

  if (opts.include_corners)
    for (const Scenario& s : corner_scenarios(opts.seed)) check_one(s, "corner");

  for (std::uint64_t i = 0; i < opts.scenarios; ++i) {
    if (opts.time_budget_s > 0 && seconds_since(t0) > opts.time_budget_s)
      break;
    const std::uint64_t seed =
        runner::derive_seed(opts.seed, "metamorphic/" + std::to_string(i));
    check_one(generate_scenario(seed, opts.bounds), "gen");
  }
  return summary;
}

}  // namespace pert::exp::fuzz
