// Integration: TraceRecorder -> trace_io round trip -> classifier, on a
// live simulation (the full Section 2 pipeline).
#include <gtest/gtest.h>

#include "exp/dumbbell.h"
#include "predictors/classic.h"
#include "predictors/trace_io.h"
#include "predictors/trace_recorder.h"

namespace pert::predictors {
namespace {

TEST(PredictorPipeline, RecordsClassifiesAndRoundTrips) {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("sack");
  cfg.bottleneck_bps = 20e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 6;
  cfg.start_window = 3.0;
  cfg.seed = 11;
  exp::Dumbbell d(cfg);

  d.network().run_until(10.0);
  TraceRecorder rec(d.fwd_sender(0), d.fwd_queue());
  d.network().run_until(40.0);
  FlowTrace trace = rec.take();

  ASSERT_GT(trace.samples.size(), 1000u);
  ASSERT_GT(trace.queue_losses.size(), 0u);  // DropTail overflows
  EXPECT_NEAR(trace.prop_delay, 0.060, 0.01);

  // Samples are time-ordered with sane values.
  for (std::size_t i = 1; i < trace.samples.size(); ++i) {
    ASSERT_GE(trace.samples[i].t, trace.samples[i - 1].t);
    ASSERT_GT(trace.samples[i].rtt, 0.0);
    ASSERT_GE(trace.samples[i].qnorm, 0.0);
    ASSERT_LE(trace.samples[i].qnorm, 1.0);
  }

  // Round trip through the CSV format preserves the analysis result.
  const char* path = "/tmp/pert_e2e_trace.csv";
  save_trace(trace, path);
  const FlowTrace loaded = load_trace(path);
  EwmaPredictor p1(0.99, 0.065), p2(0.99, 0.065);
  const auto a = classify(trace, p1, ClassifyOptions{});
  const auto b = classify(loaded, p2, ClassifyOptions{});
  EXPECT_EQ(a.n2, b.n2);
  EXPECT_EQ(a.n4, b.n4);
  EXPECT_EQ(a.n5, b.n5);
  EXPECT_GT(a.n2, 0);  // sustained congestion is detected before drops
}

TEST(PredictorPipeline, QueueLevelBeatsFlowLevelForSmoothedSignal) {
  // Figure 2's claim as an invariant on a live trace.
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("sack");
  cfg.bottleneck_bps = 20e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 10;
  cfg.num_web_sessions = 10;
  cfg.start_window = 3.0;
  cfg.seed = 12;
  exp::Dumbbell d(cfg);
  d.network().run_until(10.0);
  TraceRecorder rec(d.fwd_sender(0), d.fwd_queue());
  d.network().run_until(60.0);
  const FlowTrace trace = rec.take();

  ThresholdPredictor p(0.065);
  ClassifyOptions qo;
  ClassifyOptions fo;
  fo.queue_level_losses = false;
  const double q_eff = classify(trace, p, qo).efficiency();
  const double f_eff = classify(trace, p, fo).efficiency();
  EXPECT_GE(q_eff, f_eff);
  EXPECT_GT(q_eff, 0.5);
}

}  // namespace
}  // namespace pert::predictors
