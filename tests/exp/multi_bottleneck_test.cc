#include "exp/multi_bottleneck.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "scheme_param.h"

namespace pert::exp {
namespace {

MultiBottleneckConfig small(std::string_view scheme) {
  MultiBottleneckConfig cfg;
  cfg.scheme = parse_scheme_spec(scheme);
  cfg.num_routers = 4;
  cfg.hosts_per_cloud = 5;
  cfg.router_link_bps = 20e6;
  cfg.access_bps = 200e6;
  cfg.start_window = 2.0;
  cfg.seed = 3;
  return cfg;
}

TEST(MultiBottleneck, AllHopsCarryTraffic) {
  MultiBottleneck mb(small("pert"));
  const auto hops = mb.measure_window(8.0, 10.0);
  ASSERT_EQ(hops.size(), 3u);
  for (const auto& h : hops) {
    EXPECT_GT(h.utilization, 0.3);
    EXPECT_LE(h.utilization, 1.01);
    EXPECT_GE(h.avg_queue_pkts, 0.0);
    EXPECT_GE(h.jain, 0.2);
  }
}

TEST(MultiBottleneck, PertKeepsQueuesLowOnEveryHop) {
  const auto pert_hops = MultiBottleneck(small("pert")).measure_window(8.0, 12.0);
  const auto dt_hops =
      MultiBottleneck(small("sack")).measure_window(8.0, 12.0);
  double pert_q = 0, dt_q = 0;
  for (const auto& h : pert_hops) pert_q += h.norm_queue;
  for (const auto& h : dt_hops) dt_q += h.norm_queue;
  EXPECT_LT(pert_q, dt_q);
}

TEST(MultiBottleneck, LongHaulFlowsTraverseAllHops) {
  // With the long-haul group present, the last hop carries both its own
  // one-hop traffic and the end-to-end flows; utilization reflects that.
  MultiBottleneck mb(small("sack"));
  const auto hops = mb.measure_window(8.0, 10.0);
  EXPECT_GT(hops.back().utilization, 0.5);
}

class MbSchemeSweep : public ::testing::TestWithParam<SchemeParam> {};

TEST_P(MbSchemeSweep, EveryRegisteredSchemeRunsOnTheChain) {
  MultiBottleneckConfig cfg = small(GetParam().alias());
  MultiBottleneck mb(cfg);
  const auto hops = mb.measure_window(8.0, 8.0);
  for (const auto& h : hops) {
    EXPECT_GT(h.utilization, 0.2);
    EXPECT_GE(h.jain, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MbSchemeSweep,
    ::testing::Values(scheme_param("sack-rem"), scheme_param("sack-avq"),
                      scheme_param("pert-rem"), scheme_param("pert-pi")),
    scheme_param_name);

TEST(MultiBottleneck, SixRouterPaperTopologyRuns) {
  MultiBottleneckConfig cfg = small("pert");
  cfg.num_routers = 6;
  cfg.hosts_per_cloud = 4;
  MultiBottleneck mb(cfg);
  const auto hops = mb.measure_window(6.0, 8.0);
  EXPECT_EQ(hops.size(), 5u);
  for (const auto& h : hops) EXPECT_GE(h.drop_rate, 0.0);
}

}  // namespace
}  // namespace pert::exp
