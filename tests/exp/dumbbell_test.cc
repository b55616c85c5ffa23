#include "exp/dumbbell.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>

#include "scheme_param.h"
#include "sim/errors.h"

namespace pert::exp {
namespace {

DumbbellConfig small(std::string_view scheme) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec(scheme);
  cfg.bottleneck_bps = 20e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 5;
  cfg.start_window = 3.0;
  cfg.seed = 5;
  return cfg;
}

class SchemeSweep : public ::testing::TestWithParam<SchemeParam> {};

TEST_P(SchemeSweep, RunsAndProducesSaneMetrics) {
  Dumbbell d(small(GetParam().alias()));
  const WindowMetrics m = d.measure_window(10.0, 15.0);
  EXPECT_GT(m.utilization, 0.5) << GetParam().alias();
  EXPECT_LE(m.utilization, 1.01);
  EXPECT_GE(m.avg_queue_pkts, 0.0);
  EXPECT_LE(m.norm_queue, 1.0);
  EXPECT_GE(m.drop_rate, 0.0);
  EXPECT_LE(m.drop_rate, 1.0);
  EXPECT_GT(m.jain, 0.2);
  EXPECT_LE(m.jain, 1.0 + 1e-9);
  EXPECT_GT(m.agg_goodput_bps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values(scheme_param("sack"), scheme_param("sack-red"),
                      scheme_param("sack-pi"), scheme_param("sack-rem"),
                      scheme_param("sack-avq"), scheme_param("vegas"),
                      scheme_param("pert"), scheme_param("pert-pi"),
                      scheme_param("pert-rem")),
    scheme_param_name);

TEST(Dumbbell, BufferFollowsPaperRule) {
  // BDP in packets, min 2x flows.
  DumbbellConfig cfg = small("pert");
  cfg.bottleneck_bps = 100e6;
  cfg.rtt = 0.060;
  Dumbbell d(cfg);
  const double bdp = 100e6 * 0.060 / (8 * cfg.tcp.seg_bytes());
  EXPECT_NEAR(d.buffer_pkts(), bdp, 1.0);

  cfg.bottleneck_bps = 1e6;  // tiny BDP -> floor at 2x flows
  cfg.num_fwd_flows = 50;
  Dumbbell d2(cfg);
  EXPECT_EQ(d2.buffer_pkts(), 100);
}

TEST(Dumbbell, ExplicitBufferRespected) {
  DumbbellConfig cfg = small("pert");
  cfg.buffer_pkts = 750;
  Dumbbell d(cfg);
  EXPECT_EQ(d.buffer_pkts(), 750);
  EXPECT_EQ(d.fwd_queue().capacity_pkts(), 750);
}

TEST(Dumbbell, PerFlowRttsAreRealized) {
  DumbbellConfig cfg = small("sack");
  cfg.flow_rtts = {0.020, 0.080, 0.140};
  cfg.num_fwd_flows = 3;
  cfg.start_window = 0.5;
  Dumbbell d(cfg);
  d.measure_window(5.0, 5.0);
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(d.fwd_sender(i).min_rtt(), cfg.flow_rtts[i],
                0.25 * cfg.flow_rtts[i] + 0.005)
        << "flow " << i;
}

TEST(Dumbbell, PertBeatsDroptailOnQueueAndDrops) {
  const WindowMetrics pert = Dumbbell(small("pert")).measure_window(10, 20);
  const WindowMetrics dt = Dumbbell(small("sack")).measure_window(10, 20);
  EXPECT_LT(pert.avg_queue_pkts, dt.avg_queue_pkts);
  EXPECT_LE(pert.drop_rate, dt.drop_rate + 1e-9);
}

TEST(Dumbbell, EcnSchemesMarkInsteadOfDrop) {
  Dumbbell d(small("sack-red"));
  const WindowMetrics m = d.measure_window(10, 20);
  EXPECT_GT(m.ecn_marks, 0u);
}

TEST(Dumbbell, PertFlowsRespondEarly) {
  Dumbbell d(small("pert"));
  const WindowMetrics m = d.measure_window(10, 20);
  EXPECT_GT(m.early_responses, 0u);
}

TEST(Dumbbell, WebTrafficRuns) {
  DumbbellConfig cfg = small("pert");
  cfg.num_web_sessions = 20;
  cfg.web.think_mean = 0.5;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 15);
  EXPECT_GT(m.utilization, 0.3);
}

TEST(Dumbbell, ReverseFlowsShareReturnPath) {
  DumbbellConfig cfg = small("pert");
  cfg.num_rev_flows = 5;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 15);
  // Forward direction still works with ack compression from reverse data.
  EXPECT_GT(m.utilization, 0.4);
}

TEST(Dumbbell, NonproactiveMixForcesSackFlows) {
  DumbbellConfig cfg = small("pert");
  cfg.nonproactive_fraction = 0.4;  // 2 of 5 flows are plain SACK
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 20);
  // The SACK flows never respond early; total early responses still > 0
  // from the PERT flows.
  EXPECT_GT(m.early_responses, 0u);
  std::uint64_t early0 = d.fwd_sender(0).flow_stats().early_responses;
  std::uint64_t early1 = d.fwd_sender(1).flow_stats().early_responses;
  EXPECT_EQ(early0 + early1, 0u);  // the forced-SACK ones
}

TEST(Dumbbell, DynamicAddAndStopFlows) {
  DumbbellConfig cfg = small("pert");
  Dumbbell d(cfg);
  d.network().run_until(5.0);
  const auto idx = d.add_flows(3, 5.0);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(d.num_fwd(), 8);
  d.network().run_until(10.0);
  for (int i : idx) EXPECT_GT(d.flow_acked(i), 0);
  for (int i : idx) d.stop_flow(i);
  d.network().run_until(11.0);
  std::vector<std::int64_t> at11;
  for (int i : idx) at11.push_back(d.flow_acked(i));
  d.network().run_until(15.0);
  for (std::size_t k = 0; k < idx.size(); ++k)
    EXPECT_LE(d.flow_acked(idx[k]) - at11[k], 2);  // drained, no new data
}

TEST(Dumbbell, ConservationAtBottleneck) {
  Dumbbell d(small("sack"));
  d.measure_window(10, 20);
  const auto q = d.fwd_queue().snapshot();
  const auto l = d.fwd_link().snapshot();
  // Everything that arrived was either dropped, transmitted, is queued, or
  // is the (at most one) packet currently being serialized.
  const std::uint64_t accounted =
      q.drops + l.pkts_tx + static_cast<std::uint64_t>(d.fwd_queue().len_pkts());
  EXPECT_GE(q.arrivals, accounted);
  EXPECT_LE(q.arrivals, accounted + 1);
}

TEST(Dumbbell, DeterministicForSeed) {
  const WindowMetrics a = Dumbbell(small("pert")).measure_window(10, 10);
  const WindowMetrics b = Dumbbell(small("pert")).measure_window(10, 10);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.avg_queue_pkts, b.avg_queue_pkts);
  EXPECT_EQ(a.drops, b.drops);
}

TEST(Dumbbell, MeasureWindowRejectsANaNMeasure) {
  // NaN passes every ordered comparison; only an explicit check stops it.
  Dumbbell d(small("pert"));
  EXPECT_THROW(d.measure_window(0, std::numeric_limits<double>::quiet_NaN()),
               sim::ConfigError);
}

}  // namespace
}  // namespace pert::exp
