// Tests for the metamorphic self-validation harness: the degenerate-corner
// family is deterministic and well-formed, scenario JSON round-trips the new
// flap fields, all four relations hold on a small known-good scenario, the
// applicability guards exclude out-of-domain twins, and repro bundles carry
// the schema version and build stamp.
#include "exp/fuzz/metamorphic.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "exp/fuzz/fuzz.h"
#include "exp/fuzz/scenario.h"
#include "runner/json.h"

namespace pert::exp::fuzz {
namespace {

TEST(CornerScenarios, FamilyIsDeterministicAndDistinct) {
  const auto a = corner_scenarios(42);
  const auto b = corner_scenarios(42);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_TRUE(a == b);  // same base seed -> identical family
  std::set<std::uint64_t> seeds;
  for (const Scenario& s : a) seeds.insert(s.seed);
  EXPECT_EQ(seeds.size(), a.size());  // every corner gets its own stream
  const auto c = corner_scenarios(43);
  EXPECT_NE(a.front().seed, c.front().seed);  // base seed matters
}

TEST(CornerScenarios, CoverTheDocumentedExtremes) {
  const auto family = corner_scenarios(1);
  bool tiny_buffer = false, tiny_rtt = false, huge_rtt = false;
  bool fat_pipe = false, starved = false, flapping = false;
  for (const Scenario& s : family) {
    tiny_buffer |= s.buffer_pkts == 1;
    tiny_rtt |= s.rtt <= 0.005;
    huge_rtt |= s.rtt >= 1.0;
    fat_pipe |= s.bottleneck_bps >= 1e9;
    starved |= s.bottleneck_bps <= 100e3 && s.num_fwd_flows >= 100;
    flapping |= s.has_flaps();
  }
  EXPECT_TRUE(tiny_buffer);
  EXPECT_TRUE(tiny_rtt);
  EXPECT_TRUE(huge_rtt);
  EXPECT_TRUE(fat_pipe);
  EXPECT_TRUE(starved);
  EXPECT_TRUE(flapping);
}

TEST(CornerScenarios, FlapCornerCountsAsImpairment) {
  for (const Scenario& s : corner_scenarios(1)) {
    if (!s.has_flaps()) continue;
    // has_impairments() gates the fluid oracle; a flapping link must never
    // be judged against the impairment-free fluid model.
    EXPECT_TRUE(s.has_impairments());
    return;
  }
  FAIL() << "no flapping corner in the family";
}

TEST(ScenarioJson, RoundTripsFlapFields) {
  Scenario s;
  s.seed = 7;
  s.flap_first_down = 5.5;
  s.flap_down_for = 0.1;
  s.flap_period = 0.5;
  s.flap_count = 10;
  const Scenario back = scenario_from_json(to_json(s));
  EXPECT_TRUE(s == back);
  EXPECT_TRUE(back.has_flaps());
}

Scenario small_pert_scenario() {
  Scenario s;
  s.seed = 99;
  s.scheme = parse_scheme_spec("pert");
  s.bottleneck_bps = 8e6;
  s.rtt = 0.05;
  s.num_fwd_flows = 4;
  s.start_window = 1.0;
  s.warmup = 4.0;
  s.measure = 3.0;
  return s;
}

TEST(MetamorphicRelations, AllFourHoldOnSmallPertScenario) {
  const auto results = check_relations(small_pert_scenario());
  ASSERT_EQ(results.size(), 4u);
  std::set<std::string> seen;
  for (const RelationResult& r : results) {
    seen.insert(r.relation);
    EXPECT_TRUE(r.applicable) << r.relation;
    EXPECT_TRUE(r.ok) << r.relation << ": " << r.detail;
  }
  EXPECT_EQ(seen, (std::set<std::string>{"seed-stream", "time-shift",
                                         "relabel", "rescale"}));
}

TEST(MetamorphicRelations, RescaleGuardExcludesNonScaleFreeSchemes) {
  // The router-side PI discretization re-derives gains from the link rate,
  // so the k = 2 rescale identity does not apply to it.
  Scenario s = small_pert_scenario();
  s.scheme = parse_scheme_spec("pert-pi");
  for (const RelationResult& r : check_relations(s)) {
    if (r.relation == "rescale") {
      EXPECT_FALSE(r.applicable);
    }
  }
}

TEST(MetamorphicRelations, RescaleGuardExcludesFlooredDimensions) {
  // Halving this RTT pushes the access-link delay below the builder's
  // 0.5 ms floor; a binding floor breaks the exact-scaling argument.
  Scenario s = small_pert_scenario();
  s.rtt = 0.008;
  for (const RelationResult& r : check_relations(s)) {
    if (r.relation == "rescale") {
      EXPECT_FALSE(r.applicable);
    }
  }
}

TEST(RunMetamorphic, SmokeWithCornersDisabled) {
  MetamorphicOptions opts;
  opts.seed = 5;
  opts.scenarios = 1;
  opts.include_corners = false;
  opts.bounds.warmup = 4.0;
  opts.bounds.measure = 3.0;
  const MetamorphicSummary summary = run_metamorphic(opts);
  EXPECT_EQ(summary.scenarios_run, 1u);
  EXPECT_GE(summary.relations_checked, 1u);
  EXPECT_TRUE(summary.failures.empty());
}

TEST(ReproBundle, CarriesSchemaVersionAndBuildStamp) {
  Violation v;
  v.scenario = small_pert_scenario();
  v.original = v.scenario;
  v.kind = "invariant";
  v.detail = "test";
  const std::string path =
      write_repro_bundle(v, ::testing::TempDir());
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const runner::JsonValue doc = runner::JsonValue::parse(ss.str());
  ASSERT_NE(doc.find("pert_fuzz_repro"), nullptr);
  EXPECT_EQ(doc.find("pert_fuzz_repro")->as_uint(), kReproSchemaVersion);
  ASSERT_NE(doc.find("build"), nullptr);
  // The stamp is whatever the build recorded — but never empty.
  EXPECT_FALSE(doc.find("build")->as_string().empty());
  EXPECT_EQ(doc.find("build")->as_string(), build_stamp());
}

}  // namespace
}  // namespace pert::exp::fuzz
