// Regression tests for the *paper-level claims* — each test asserts the
// qualitative shape a figure reports, at a scale small enough for CI.
// If any of these breaks, the reproduction story breaks.
#include <gtest/gtest.h>

#include <string_view>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"

namespace pert::exp {
namespace {

DumbbellConfig base(std::string_view scheme, double bw) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec(scheme);
  cfg.bottleneck_bps = bw;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 10;
  cfg.start_window = 5.0;
  cfg.seed = 4242;
  return cfg;
}

class BandwidthShape : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthShape, PertTracksRedEcnQueueAndDrops) {
  // Figure 6 claim: PERT's queue ~ RED-ECN's, both << DropTail; PERT has
  // no drops where DropTail does.
  const double bw = GetParam();
  const auto pert = Dumbbell(base("pert", bw)).measure_window(15, 25);
  const auto red = Dumbbell(base("sack-red", bw)).measure_window(15, 25);
  const auto dt = Dumbbell(base("sack", bw)).measure_window(15, 25);
  EXPECT_LT(pert.avg_queue_pkts, 0.6 * dt.avg_queue_pkts);
  EXPECT_LT(pert.avg_queue_pkts, 3.0 * red.avg_queue_pkts + 10.0);
  EXPECT_LE(pert.drop_rate, dt.drop_rate + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandwidthShape,
                         ::testing::Values(5e6, 20e6, 50e6));

TEST(PaperShapes, VegasQueueGrowsWithFlowCountPertDoesNot) {
  // Figure 8 claim.
  auto run = [&](std::string_view s, int flows) {
    DumbbellConfig cfg = base(s, 30e6);
    cfg.num_fwd_flows = flows;
    return Dumbbell(cfg).measure_window(15, 25);
  };
  const double vegas_small = run("vegas", 5).avg_queue_pkts;
  const double vegas_big = run("vegas", 40).avg_queue_pkts;
  const double pert_small = run("pert", 5).avg_queue_pkts;
  const double pert_big = run("pert", 40).avg_queue_pkts;
  EXPECT_GT(vegas_big, 3.0 * vegas_small);   // Vegas: ~alpha..beta per flow
  EXPECT_LT(pert_big, pert_small * 3.0 + 30.0);  // PERT: stays low
  EXPECT_LT(pert_big, vegas_big);
}

TEST(PaperShapes, PertFairerThanVegas) {
  // Figures 6/8 claim: PERT jain ~ 1, Vegas jain low (late-comer bias).
  const auto pert = Dumbbell(base("pert", 30e6)).measure_window(15, 30);
  DumbbellConfig vc = base("vegas", 30e6);
  vc.start_window = 20.0;  // staggered starts expose Vegas' base-RTT bias
  const auto vegas = Dumbbell(vc).measure_window(25, 30);
  EXPECT_GT(pert.jain, 0.95);
  EXPECT_GT(pert.jain, vegas.jain);
}

TEST(PaperShapes, PertReducesRttUnfairness) {
  // Table 1 claim, at the bench's (reduced) scale: 10 flows with RTTs
  // 12..120 ms. Short windows with few flows are noisy, so use the same
  // population and a long window.
  auto run = [&](std::string_view s) {
    DumbbellConfig cfg = base(s, 100e6);
    cfg.num_fwd_flows = 10;
    cfg.flow_rtts.clear();
    for (int i = 1; i <= 10; ++i) cfg.flow_rtts.push_back(0.012 * i);
    return Dumbbell(cfg).measure_window(25, 60);
  };
  const auto pert = run("pert");
  const auto sack = run("sack");
  EXPECT_GT(pert.jain, sack.jain);
}

TEST(PaperShapes, EmulationNeedsNoRouterSupport) {
  // The core thesis: PERT achieves RED-ECN-like queues over *DropTail*.
  DumbbellConfig cfg = base("pert", 30e6);
  Dumbbell d(cfg);
  const auto m = d.measure_window(15, 30);
  EXPECT_EQ(m.ecn_marks, 0u);        // nothing marked anything
  EXPECT_GT(m.early_responses, 0u);  // the end hosts did the work
  EXPECT_LT(m.norm_queue, 0.5);
  EXPECT_EQ(m.drops, 0u);
}

TEST(PaperShapes, MultiBottleneckLowQueuesEveryHop) {
  // Figure 11 claim.
  MultiBottleneckConfig cfg;
  cfg.scheme = parse_scheme_spec("pert");
  cfg.num_routers = 4;
  cfg.hosts_per_cloud = 5;
  cfg.router_link_bps = 20e6;
  cfg.start_window = 3.0;
  cfg.seed = 6;
  MultiBottleneck mb(cfg);
  for (const auto& hop : mb.measure_window(10, 20)) {
    EXPECT_LT(hop.norm_queue, 0.5);
    EXPECT_LT(hop.drop_rate, 1e-3);
  }
}

TEST(PaperShapes, DynamicArrivalsConvergeQuickly) {
  // Figure 12 claim: after 2x flows join, the old cohort's share halves
  // within a couple of measurement bins.
  DumbbellConfig cfg = base("pert", 30e6);
  cfg.num_fwd_flows = 5;
  cfg.start_window = 1.0;
  Dumbbell d(cfg);
  d.network().run_until(20.0);
  std::vector<std::int64_t> a0;
  for (int i = 0; i < 5; ++i) a0.push_back(d.flow_acked(i));
  d.network().run_until(25.0);
  double before = 0;
  for (int i = 0; i < 5; ++i)
    before += static_cast<double>(d.flow_acked(i) - a0[i]);
  d.add_flows(5, 25.0);
  d.network().run_until(35.0);  // give the newcomers 10 s
  std::vector<std::int64_t> a1;
  for (int i = 0; i < 5; ++i) a1.push_back(d.flow_acked(i));
  d.network().run_until(40.0);
  double after = 0;
  for (int i = 0; i < 5; ++i)
    after += static_cast<double>(d.flow_acked(i) - a1[i]);
  // Cohort-1 aggregate (per 5 s) drops to roughly half.
  EXPECT_LT(after, 0.75 * before);
  EXPECT_GT(after, 0.25 * before);
}

}  // namespace
}  // namespace pert::exp
