// Scenario fuzzer: generator determinism, scenario JSON round-trip, oracle
// calibration (clean scenarios pass), and the acceptance loop — a seeded,
// intentionally broken sender planted through the test-only mutation hook
// is found by the differential oracle within a bounded number of
// iterations, shrunk, and emitted as a repro bundle that replays.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fuzz/fuzz.h"
#include "net/qdisc_registry.h"
#include "runner/seed.h"
#include "sim/errors.h"
#include "tcp/cc_registry.h"

namespace pert::exp::fuzz {
namespace {

TEST(FuzzGenerator, DeterministicFromSeed) {
  const GeneratorBounds b;
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const Scenario a = generate_scenario(seed, b);
    const Scenario c = generate_scenario(seed, b);
    EXPECT_EQ(a, c) << seed;
    EXPECT_EQ(to_json(a).dump(), to_json(c).dump()) << seed;
  }
  EXPECT_NE(generate_scenario(1, b), generate_scenario(2, b));
}

TEST(FuzzGenerator, StaysInsideBounds) {
  const GeneratorBounds b;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Scenario s = generate_scenario(runner::derive_seed(9, "b/" + std::to_string(i)), b);
    EXPECT_GE(s.bottleneck_bps, b.min_bps);
    EXPECT_LE(s.bottleneck_bps, b.max_bps);
    EXPECT_GE(s.rtt, b.min_rtt);
    EXPECT_LE(s.rtt, b.max_rtt);
    EXPECT_GE(s.num_fwd_flows, b.min_flows);
    EXPECT_LE(s.num_fwd_flows, b.max_flows);
    EXPECT_GT(s.pert_pmax, 0.0);
    EXPECT_LT(s.pert_early_beta, 1.0);
  }
}

TEST(FuzzScenario, JsonRoundTripsEveryField) {
  Scenario s;
  s.seed = 0x1234abcd5678ef00ull;
  s.topology = Topology::kMultiBottleneck;
  s.scheme = parse_scheme_spec("pert-pi");
  s.bottleneck_bps = 33.5e6;
  s.rtt = 0.0815;
  s.num_fwd_flows = 17;
  s.num_rev_flows = 3;
  s.num_web_sessions = 6;
  s.buffer_pkts = 120;
  s.nonproactive_fraction = 0.25;
  s.num_routers = 4;
  s.hosts_per_cloud = 3;
  s.pert_pmax = 0.07;
  s.pert_early_beta = 0.42;
  s.pert_gentle = false;
  s.loss_p = 0.003;
  s.jitter_max_delay = 0.004;
  s.reorder_p = 0.02;
  s.reorder_max_delay = 0.011;
  s.start_window = 1.5;
  s.warmup = 9.0;
  s.measure = 7.0;

  const Scenario back = scenario_from_json(
      runner::JsonValue::parse(to_json(s).dump(2)));
  EXPECT_EQ(back, s);
}

TEST(FuzzScenario, SchemeJsonRoundTripsEveryAliasAndRegisteredCombo) {
  ensure_scheme_modules();
  std::vector<std::string> specs;
  for (const SchemeAlias& a : scheme_aliases()) specs.emplace_back(a.alias);
  for (const std::string& cc : tcp::CcRegistry::instance().names())
    for (const std::string& q : net::QdiscRegistry::instance().names())
      for (const char* ecn : {"+ecn", "-ecn"})
        specs.push_back(cc + "/" + q + ecn);
  for (const std::string& text : specs) {
    Scenario s;
    s.scheme = parse_scheme_spec(text);
    const Scenario back = scenario_from_json(
        runner::JsonValue::parse(to_json(s).dump(2)));
    EXPECT_EQ(back, s) << text;
  }
  // Today's scenario space keeps its bundle spelling byte for byte.
  Scenario s;
  s.scheme = parse_scheme_spec("sack-droptail");
  EXPECT_EQ(to_json(s).find("scheme")->as_string(), "sack");
  s.scheme = parse_scheme_spec("pert-pi");
  EXPECT_EQ(to_json(s).find("scheme")->as_string(), "pert-pi");
  // Bundles written with the second spelling of SACK/DropTail still load.
  const Scenario legacy = scenario_from_json(
      runner::JsonValue::parse(R"({"seed": 3, "scheme": "sack-droptail"})"));
  EXPECT_EQ(legacy.scheme, parse_scheme_spec("sack"));
}

TEST(FuzzScenario, IntegerFieldsRejectNonIntegralAndOutOfRangeValues) {
  for (const char* field :
       {"num_fwd_flows", "num_rev_flows", "num_web_sessions", "buffer_pkts",
        "num_routers", "hosts_per_cloud", "flap_count"}) {
    for (const char* value : {"2.7", "4294967298.0", "-1e300"}) {
      const std::string doc =
          std::string("{\"") + field + "\": " + value + "}";
      try {
        scenario_from_json(runner::JsonValue::parse(doc));
        ADD_FAILURE() << doc << " decoded";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
    // The extremes of the type still decode.
    for (const char* value : {"2147483647", "-2147483648.0", "0"})
      EXPECT_NO_THROW(scenario_from_json(runner::JsonValue::parse(
          std::string("{\"") + field + "\": " + value + "}")))
          << field << " = " << value;
  }
}

TEST(FuzzScenario, ConfigMaterialization) {
  Scenario s;
  s.pert_pmax = 0.08;
  s.pert_early_beta = 0.3;
  s.loss_p = 0.01;
  const DumbbellConfig cfg = to_dumbbell(s);
  EXPECT_EQ(cfg.pert.pmax, 0.08);
  EXPECT_EQ(cfg.pert.early_beta, 0.3);
  EXPECT_EQ(cfg.impair.loss.p, 0.01);
  EXPECT_TRUE(cfg.watchdog.enabled);  // scenario runs never disable it

  s.topology = Topology::kMultiBottleneck;
  EXPECT_THROW(to_dumbbell(s), std::logic_error);
  const MultiBottleneckConfig mb = to_multi_bottleneck(s);
  EXPECT_EQ(mb.pert.pmax, 0.08);
  EXPECT_TRUE(mb.watchdog.enabled);
}

TEST(FuzzScenario, ReorderWithoutAHoldIsAConfigError) {
  // A repro bundle is checked by the same rules as a command line: reorder
  // with p > 0 and no maximum hold would never reorder anything.
  Scenario s;
  s.reorder_p = 0.05;
  s.reorder_max_delay = 0.0;
  try {
    run_scenario(s);
    FAIL() << "reorder_p > 0 with reorder_max_delay = 0 must not build";
  } catch (const sim::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("reorder.max_delay"),
              std::string::npos)
        << e.what();
  }
}

/// First generator index whose scenario the oracle can judge (clean PERT
/// dumbbell). The suite below reuses it so sim time is spent on exactly one
/// eligible scenario.
std::uint64_t first_eligible_index(const GeneratorBounds& b) {
  for (std::uint64_t i = 0;; ++i) {
    const Scenario s = generate_scenario(
        runner::derive_seed(1, "fuzz/" + std::to_string(i)), b);
    if (check_against_fluid(s, WindowMetrics{}).applicable) return i;
  }
}

TEST(FuzzOracle, InapplicableScenariosAreGated) {
  Scenario s;  // defaults: clean PERT dumbbell, 8 flows
  s.loss_p = 0.01;
  EXPECT_FALSE(check_against_fluid(s, WindowMetrics{}).applicable);
  s.loss_p = 0;
  s.scheme = parse_scheme_spec("sack");
  EXPECT_FALSE(check_against_fluid(s, WindowMetrics{}).applicable);
  s.scheme = parse_scheme_spec("pert");
  s.num_fwd_flows = 2;
  EXPECT_FALSE(check_against_fluid(s, WindowMetrics{}).applicable);
  s.num_fwd_flows = 8;
  s.topology = Topology::kMultiBottleneck;
  EXPECT_FALSE(check_against_fluid(s, WindowMetrics{}).applicable);
}

TEST(FuzzOracle, CleanScenarioPassesBands) {
  const GeneratorBounds b;
  const std::uint64_t i = first_eligible_index(b);
  const Scenario s = generate_scenario(
      runner::derive_seed(1, "fuzz/" + std::to_string(i)), b);
  const WindowMetrics m = run_scenario(s).metrics;
  const OracleVerdict v = check_against_fluid(s, m);
  ASSERT_TRUE(v.applicable) << v.why_inapplicable;
  EXPECT_TRUE(v.ok) << v.failure;
  EXPECT_GT(v.observed_utilization, v.utilization_floor);
  // The delay band is one-sided: only a standing queue above the fluid
  // prediction is a violation (see oracle.cc).
  EXPECT_LE(v.observed_delay_s - v.predicted_delay_s, v.delay_tolerance_s);
}

TEST(FuzzAcceptance, BrokenSenderFoundShrunkAndReplayable) {
  // Plant an intentionally broken sender via the test-only mutation hook:
  // early_beta ~ 1 makes every early response collapse the window to the
  // 1-packet floor instead of the paper's multiplicative 0.35 decrease.
  // The fluid model (which hard-codes the correct decrease) predicts full
  // utilization, so the differential oracle must flag the divergence
  // within a bounded number of iterations.
  FuzzOptions opts;
  opts.seed = 1;
  opts.iterations = 20;  // bounded: eligible scenarios exist well within 20
  opts.repro_dir = ::testing::TempDir();
  opts.shrink = true;
  opts.mutate = [](Scenario& s) { s.pert_early_beta = 0.99; };

  const FuzzSummary summary = run_fuzz(opts);
  EXPECT_GE(summary.oracle_checked, 1u);
  ASSERT_FALSE(summary.violations.empty())
      << "oracle failed to find the planted broken sender";
  const Violation& v = summary.violations.front();
  EXPECT_EQ(v.kind, "oracle");
  // Which band trips can shift as the shrinker changes dimensions
  // (utilization collapse at scale, empty-queue delay divergence when
  // small); either way the detail names a fluid-model band.
  EXPECT_FALSE(v.detail.empty());
  EXPECT_TRUE(v.detail.find("utilization") != std::string::npos ||
              v.detail.find("queueing delay") != std::string::npos)
      << v.detail;

  // The shrinker preserved the seed and never grew the scenario.
  EXPECT_EQ(v.scenario.seed, v.original.seed);
  EXPECT_LE(v.scenario.num_fwd_flows, v.original.num_fwd_flows);
  EXPECT_LE(v.scenario.measure, v.original.measure);

  // The bundle is on disk, self-contained, and replays to the same kind.
  ASSERT_FALSE(v.bundle_path.empty());
  EXPECT_TRUE(replay_repro_bundle(v.bundle_path, /*verbose=*/false));
  std::remove(v.bundle_path.c_str());
}

TEST(FuzzShrinker, ReducesWhilePreservingViolationAndSeed) {
  // Classification is a deterministic function of the scenario, so the
  // greedy minimizer must terminate on a smaller scenario that still
  // violates with the same kind and the same seed.
  // Scan eligible scenarios for one the mutation actually breaks (some
  // small-RTT corners tolerate even a 0.99 decrease factor).
  const GeneratorBounds b;
  Scenario s;
  std::string kind;
  for (std::uint64_t i = 0; kind.empty(); ++i) {
    ASSERT_LT(i, 40u) << "no eligible scenario broke under the mutation";
    s = generate_scenario(
        runner::derive_seed(1, "fuzz/" + std::to_string(i)), b);
    if (!check_against_fluid(s, WindowMetrics{}).applicable) continue;
    s.pert_early_beta = 0.99;
    kind = classify_scenario(s).first;
  }
  const Scenario small = shrink_scenario(s, kind);
  EXPECT_EQ(small.seed, s.seed);
  EXPECT_LE(small.num_fwd_flows, s.num_fwd_flows);
  EXPECT_LE(small.warmup, s.warmup);
  EXPECT_EQ(classify_scenario(small).first, kind)
      << "shrunk scenario no longer violates";
}

TEST(FuzzScenario, MultiBottleneckScenarioRuns) {
  Scenario s;
  s.topology = Topology::kMultiBottleneck;
  s.num_routers = 3;
  s.hosts_per_cloud = 2;
  s.bottleneck_bps = 10e6;
  s.warmup = 3.0;
  s.measure = 3.0;
  const ScenarioOutcome out = run_scenario(s);
  EXPECT_GT(out.metrics.utilization, 0.0);
  EXPECT_LE(out.metrics.utilization, 1.2);
}

}  // namespace
}  // namespace pert::exp::fuzz
