// Cross-checks of the windowed metrics themselves: goodput accounting,
// aggregate consistency, and utilization-vs-goodput coherence.
#include <gtest/gtest.h>

#include "exp/dumbbell.h"

namespace pert::exp {
namespace {

TEST(Metrics, GoodputsSumToAggregate) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("sack");
  cfg.bottleneck_bps = 20e6;
  cfg.num_fwd_flows = 5;
  cfg.start_window = 2.0;
  cfg.seed = 3;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 20);
  double sum = 0;
  for (std::int32_t i = 0; i < d.num_fwd(); ++i) sum += d.flow_goodput(i);
  EXPECT_NEAR(sum, m.agg_goodput_bps, 1.0);
}

TEST(Metrics, GoodputBoundedByUtilization) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("pert");
  cfg.bottleneck_bps = 20e6;
  cfg.num_fwd_flows = 5;
  cfg.start_window = 2.0;
  cfg.seed = 4;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 30);
  // Payload goodput <= wire throughput (factor payload/wire ~ 0.96).
  EXPECT_LE(m.agg_goodput_bps, m.utilization * 20e6 + 1e5);
  // And with only long-term flows, goodput ~ utilization * payload share.
  EXPECT_GT(m.agg_goodput_bps,
            0.85 * m.utilization * 20e6 * 1000.0 / 1040.0);
}

TEST(Metrics, NormalizedQueueConsistent) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("sack");
  cfg.bottleneck_bps = 20e6;
  cfg.num_fwd_flows = 8;
  cfg.buffer_pkts = 200;
  cfg.start_window = 2.0;
  cfg.seed = 5;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(10, 20);
  EXPECT_NEAR(m.norm_queue, m.avg_queue_pkts / 200.0, 1e-12);
}

TEST(Metrics, WindowDurationRecorded) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("pert");
  cfg.bottleneck_bps = 20e6;
  cfg.num_fwd_flows = 2;
  cfg.seed = 6;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(5, 12.5);
  EXPECT_DOUBLE_EQ(m.duration, 12.5);
}

}  // namespace
}  // namespace pert::exp
