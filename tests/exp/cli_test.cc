#include "exp/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pert::exp {
namespace {

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
  const CliOptions o = parse_cli(
      {"scheme=pert", "bw=150M", "rtt=60", "flows=50", "rev_flows=5",
       "web=100", "buffer=750", "seed=7", "warmup=30", "measure=120",
       "start_window=12", "sack_fraction=0.25", "beta=0.4", "pmax=0.1",
       "gentle=0", "owd=1", "adaptive=1", "trace_out=/tmp/t.csv",
       "series_out=/tmp/q.csv", "obs_interval=50"});
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
}

TEST(ParseCli, UsageMentionsEveryKey) {
  const std::string u = cli_usage();
  for (const char* key :
       {"scheme=", "bw=", "rtt=", "flows=", "web=", "buffer=", "seed=",
        "warmup=", "measure=", "beta=", "pmax=", "owd=", "adaptive=",
        "trace_out=", "series_out="})
    EXPECT_NE(u.find(key), std::string::npos) << key;
}

}  // namespace
}  // namespace pert::exp
