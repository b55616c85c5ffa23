#include "core/srtt_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pert::core {
namespace {

TEST(Srtt, NotReadyBeforeFirstSample) {
  SrttEstimator e;
  EXPECT_FALSE(e.ready());
  EXPECT_DOUBLE_EQ(e.queueing_delay(), 0.0);
}

TEST(Srtt, FirstSampleSeedsEverything) {
  SrttEstimator e;
  e.add_sample(0.1);
  EXPECT_TRUE(e.ready());
  EXPECT_DOUBLE_EQ(e.srtt(), 0.1);
  EXPECT_DOUBLE_EQ(e.prop_delay(), 0.1);
  EXPECT_DOUBLE_EQ(e.queueing_delay(), 0.0);
}

TEST(Srtt, HeavyHistoryWeight) {
  SrttEstimator e(0.99);
  e.add_sample(0.100);
  e.add_sample(0.200);
  // 0.99*0.1 + 0.01*0.2 = 0.101
  EXPECT_NEAR(e.srtt(), 0.101, 1e-12);
}

TEST(Srtt, MinTracksPropagationDelay) {
  SrttEstimator e;
  e.add_sample(0.15);
  e.add_sample(0.10);
  e.add_sample(0.25);
  EXPECT_DOUBLE_EQ(e.prop_delay(), 0.10);
}

TEST(Srtt, QueueingDelayIsDifference) {
  SrttEstimator e(0.0);  // no smoothing: srtt == last sample
  e.add_sample(0.10);
  e.add_sample(0.14);
  EXPECT_NEAR(e.queueing_delay(), 0.04, 1e-12);
}

TEST(Srtt, QueueingDelayNeverNegative) {
  SrttEstimator e(0.0);
  e.add_sample(0.20);  // high first
  e.add_sample(0.10);  // new minimum; srtt == 0.10 == min
  EXPECT_GE(e.queueing_delay(), 0.0);
}

TEST(Srtt, ConvergesToSteadyInput) {
  SrttEstimator e(0.99);
  for (int i = 0; i < 3000; ++i) e.add_sample(0.123);
  EXPECT_NEAR(e.srtt(), 0.123, 1e-9);
}

TEST(Srtt, SmoothsSpikesLikeRedAvgQueue) {
  // The whole point of srtt_0.99: a burst of high samples moves it little.
  SrttEstimator e(0.99);
  for (int i = 0; i < 1000; ++i) e.add_sample(0.060);
  for (int i = 0; i < 5; ++i) e.add_sample(0.200);
  EXPECT_LT(e.queueing_delay(), 0.010);
}

TEST(Srtt, RiseTimeMatchesEwmaTimeConstant) {
  // After n samples of a step, srtt covers 1 - alpha^n of the step.
  SrttEstimator e(0.99);
  e.add_sample(0.1);
  for (int i = 0; i < 100; ++i) e.add_sample(0.2);
  const double expected = 0.2 - (0.2 - 0.1) * std::pow(0.99, 100);
  EXPECT_NEAR(e.srtt(), expected, 1e-9);
}

}  // namespace
}  // namespace pert::core
