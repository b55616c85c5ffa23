// Self-contained randomized-scenario description for the fuzzer.
//
// A Scenario is everything needed to rebuild and re-run one randomized
// experiment bit-identically: topology (dumbbell or multi-bottleneck chain),
// link/flow dimensions, the PERT knobs the fuzzer perturbs, impairments, and
// the measurement window. It serializes to JSON (runner::JsonValue), which
// is what makes fuzzer repro bundles replayable by `pert_sim repro=<file>`
// on a different machine or a later build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "exp/scheme.h"
#include "runner/json.h"

namespace pert::exp::fuzz {

enum class Topology { kDumbbell, kMultiBottleneck };

std::string to_string(Topology t);
Topology topology_from_string(const std::string& s);

struct Scenario {
  std::uint64_t seed = 1;  ///< drives every RNG stream in the simulation
  Topology topology = Topology::kDumbbell;

  SchemeSpec scheme = parse_scheme_spec("pert");  ///< JSON: spec_string()
  double bottleneck_bps = 20e6;
  double rtt = 0.060;              ///< two-way propagation delay, seconds
  std::int32_t num_fwd_flows = 8;
  std::int32_t num_rev_flows = 0;
  std::int32_t num_web_sessions = 0;
  std::int32_t buffer_pkts = 0;    ///< 0 = auto (BDP rule)
  /// Fraction of forward flows running plain SACK instead of the scheme
  /// under test (the PERT/SACK co-existence mix).
  double nonproactive_fraction = 0.0;

  /// Multi-bottleneck chain dimensions (ignored for dumbbell).
  std::int32_t num_routers = 3;
  std::int32_t hosts_per_cloud = 4;

  /// PERT knobs the fuzzer perturbs (and the fault-injection hook mutates).
  double pert_pmax = 0.05;
  double pert_early_beta = 0.35;
  bool pert_gentle = true;

  /// Impairments (all zero = clean scenario, eligible for the fluid oracle).
  double loss_p = 0.0;             ///< Bernoulli drop probability
  double jitter_max_delay = 0.0;   ///< uniform extra delay bound, seconds
  double reorder_p = 0.0;          ///< hold-back probability
  double reorder_max_delay = 0.0;  ///< hold duration bound, seconds

  /// Bottleneck link flaps (down_for = 0 disables). The degenerate-corner
  /// family uses these for its back-to-back outage scenarios.
  double flap_first_down = 0.0;    ///< absolute time of the first outage
  double flap_down_for = 0.0;      ///< outage duration, seconds
  double flap_period = 0.0;        ///< down-edge spacing; 0 = single outage
  std::int32_t flap_count = 0;     ///< number of outages

  /// Measurement window.
  double start_window = 2.0;  ///< flow start times uniform in [0, this)
  double warmup = 15.0;       ///< seconds before measurement begins
  double measure = 10.0;      ///< measured seconds

  bool has_impairments() const {
    return loss_p > 0 || jitter_max_delay > 0 ||
           (reorder_p > 0 && reorder_max_delay > 0) || has_flaps();
  }

  bool has_flaps() const { return flap_down_for > 0 && flap_count > 0; }

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

runner::JsonValue to_json(const Scenario& s);
Scenario scenario_from_json(const runner::JsonValue& v);

/// Materializes the dumbbell configuration (topology must be kDumbbell).
DumbbellConfig to_dumbbell(const Scenario& s);
/// Materializes the chain configuration (topology must be kMultiBottleneck).
MultiBottleneckConfig to_multi_bottleneck(const Scenario& s);

struct ScenarioOutcome {
  /// Dumbbell: the bottleneck window metrics. Multi-bottleneck: the worst
  /// hop by utilization, with avg_queue_pkts from the most loaded hop.
  WindowMetrics metrics;
};

/// Folds a chain's per-hop windows into one: the most loaded hop's (the last
/// one on a tie) utilization, avg_queue_pkts, norm_queue, drop_rate and jain
/// over a window of `measure` seconds; every other field stays 0.
WindowMetrics most_loaded_hop(const std::vector<WindowMetrics>& hops,
                              double measure);

/// Builds and runs the scenario with the standard invariant checker enabled
/// (Scenario runs never disable it). Throws sim::InvariantViolation /
/// sim::StallError / anything the simulation throws — classification is the
/// caller's job.
ScenarioOutcome run_scenario(const Scenario& s);

}  // namespace pert::exp::fuzz
