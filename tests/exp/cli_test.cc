#include "exp/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace pert::exp {
namespace {

/// The scenario keys alone, as pert_sim registers them.
CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  cli::OptionSet keys("pert_sim");
  add_scenario_keys(keys, o);
  keys.parse(args);
  return o;
}

/// Every scalar scenario key, set away from its default.
const std::vector<std::string> kFullScenario = {
    "scheme=pert", "bw=150M", "rtt=60", "flows=50", "rev_flows=5",
    "web=100", "buffer=750", "seed=7", "warmup=30", "measure=120",
    "start_window=12", "sack_fraction=0.25", "beta=0.4", "pmax=0.1",
    "gentle=0", "owd=1", "adaptive=1", "trace_out=/tmp/t.csv",
    "series_out=/tmp/q.csv", "obs_interval=50"};

TEST(ParseRate, SuffixesAndPlain) {
  EXPECT_DOUBLE_EQ(parse_rate("1000000"), 1e6);
  EXPECT_DOUBLE_EQ(parse_rate("64k"), 64e3);
  EXPECT_DOUBLE_EQ(parse_rate("150M"), 150e6);
  EXPECT_DOUBLE_EQ(parse_rate("2.5G"), 2.5e9);
  EXPECT_DOUBLE_EQ(parse_rate("10K"), 10e3);
}

TEST(ParseRate, Rejections) {
  EXPECT_THROW(parse_rate(""), std::invalid_argument);
  EXPECT_THROW(parse_rate("fast"), std::invalid_argument);
  EXPECT_THROW(parse_rate("-5M"), std::invalid_argument);
  EXPECT_THROW(parse_rate("10Q"), std::invalid_argument);
}

TEST(ParseScheme, AllNames) {
  // Every alias is accepted by the parser the scheme= token goes through.
  for (const SchemeAlias& a : scheme_aliases()) {
    const SchemeSpec s = parse_scheme_spec(a.alias);
    EXPECT_EQ(s.cc, a.cc) << a.alias;
    EXPECT_EQ(s.qdisc, a.qdisc) << a.alias;
    EXPECT_EQ(s.ecn, a.ecn) << a.alias;
  }
  EXPECT_EQ(parse_scheme_spec("sack"), parse_scheme_spec("sack-droptail"));
  EXPECT_EQ(parse_cli({"scheme=pert,sack-droptail"}).schemes,
            parse_scheme_list("pert,sack"));
}

TEST(ParseCli, FullScenario) {
  const CliOptions o = parse_cli(kFullScenario);
  EXPECT_EQ(o.cfg.scheme, parse_scheme_spec("pert"));
  EXPECT_DOUBLE_EQ(o.cfg.bottleneck_bps, 150e6);
  EXPECT_DOUBLE_EQ(o.cfg.rtt, 0.060);
  EXPECT_EQ(o.cfg.num_fwd_flows, 50);
  EXPECT_EQ(o.cfg.num_rev_flows, 5);
  EXPECT_EQ(o.cfg.num_web_sessions, 100);
  EXPECT_EQ(o.cfg.buffer_pkts, 750);
  EXPECT_EQ(o.cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(o.warmup, 30);
  EXPECT_DOUBLE_EQ(o.measure, 120);
  EXPECT_DOUBLE_EQ(o.cfg.start_window, 12);
  EXPECT_DOUBLE_EQ(o.cfg.nonproactive_fraction, 0.25);
  EXPECT_DOUBLE_EQ(o.cfg.pert.early_beta, 0.4);
  EXPECT_DOUBLE_EQ(o.cfg.pert.pmax, 0.1);
  EXPECT_FALSE(o.cfg.pert.gentle);
  EXPECT_TRUE(o.cfg.pert.use_one_way_delay);
  EXPECT_TRUE(o.cfg.pert.adaptive_pmax);
  EXPECT_EQ(o.trace_out, "/tmp/t.csv");
  EXPECT_EQ(o.series_out, "/tmp/q.csv");
  EXPECT_DOUBLE_EQ(o.cfg.obs.sample_interval, 0.050);
}

TEST(ParseCli, RttList) {
  const CliOptions o = parse_cli({"rtts=12,24,36.5"});
  ASSERT_EQ(o.cfg.flow_rtts.size(), 3u);
  EXPECT_DOUBLE_EQ(o.cfg.flow_rtts[0], 0.012);
  EXPECT_DOUBLE_EQ(o.cfg.flow_rtts[2], 0.0365);
}

TEST(ParseCli, DefaultsSurvive) {
  const CliOptions o = parse_cli({});
  EXPECT_EQ(o.cfg.scheme, parse_scheme_spec("pert"));
  EXPECT_DOUBLE_EQ(o.warmup, 20.0);
  EXPECT_DOUBLE_EQ(o.measure, 40.0);
}

TEST(ParseCli, Rejections) {
  EXPECT_THROW(parse_cli({"noequals"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"mystery=1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"flows=abc"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"flows=0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"measure=-1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"gentle=maybe"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"rtts=12,,24"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"obs_interval=0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"scheme=pert,nosuch"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"impair=loss:q=1"}), std::invalid_argument);
}

TEST(ParseCli, IntegerKeysRejectFractionsAndOverflow) {
  // Each used to be truncated (2 flows, a 12-packet buffer) or to wrap
  // through a double -> int32 cast.
  for (const char* bad : {"flows=2.5", "buffer=12.9", "flows=1e10",
                          "web=-", "seed=-1", "seed=1e3"})
    EXPECT_THROW(parse_cli({bad}), std::invalid_argument) << bad;
  EXPECT_EQ(parse_cli({"buffer=12"}).cfg.buffer_pkts, 12);
}

TEST(ParseCli, RepeatedImpairKeysCompose) {
  const CliOptions o =
      parse_cli({"impair=loss:p=0.01", "impair=jitter:max_ms=5"});
  EXPECT_DOUBLE_EQ(o.cfg.impair.loss.p, 0.01);
  EXPECT_DOUBLE_EQ(o.cfg.impair.jitter.max_delay, 0.005);
}

TEST(ParseCli, ObservabilityOutputsEnableTheirRecorders) {
  const CliOptions o =
      parse_cli({"trace=/tmp/e.json", "metrics=/tmp/m.json"});
  EXPECT_TRUE(o.cfg.obs.trace.enabled);
  EXPECT_TRUE(o.cfg.obs.metrics);
  EXPECT_FALSE(parse_cli({}).cfg.obs.trace.enabled);
}

TEST(ParseCli, UsageMentionsEveryKey) {
  // pert_sim --help is generated from the key registrations; it must list
  // every key the full scenario above sets.
  std::string help;
  std::FILE* pipe = popen(PERT_SIM_BIN " --help", "r");
  ASSERT_NE(pipe, nullptr);
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    help.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0);
  for (const std::string& token : kFullScenario) {
    const std::string key = token.substr(0, token.find('=') + 1);
    EXPECT_NE(help.find("\n  " + key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace pert::exp
