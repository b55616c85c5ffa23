#include "stats/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace pert::stats {
namespace {

TEST(Jain, EqualSharesAreFair) {
  std::vector<double> xs(10, 3.7);
  EXPECT_DOUBLE_EQ(jain_index(xs), 1.0);
}

TEST(Jain, OneHotIsOneOverN) {
  std::vector<double> xs(8, 0.0);
  xs[3] = 5.0;
  EXPECT_NEAR(jain_index(xs), 1.0 / 8, 1e-12);
}

TEST(Jain, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);
  std::vector<double> zeros(4, 0.0);
  EXPECT_DOUBLE_EQ(jain_index(zeros), 0.0);
}

TEST(Jain, ScaleInvariant) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{10, 20, 30, 40};
  EXPECT_NEAR(jain_index(a), jain_index(b), 1e-12);
}

TEST(Jain, BoundedByOne) {
  std::vector<double> xs{0.1, 5.0, 2.2, 9.9, 0.0};
  const double j = jain_index(xs);
  EXPECT_GT(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST(Summary, TracksMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.mean(), -3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinsAndPdf) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.05);  // bin 0
  for (int i = 0; i < 300; ++i) h.add(0.55);  // bin 5
  EXPECT_EQ(h.total(), 400u);
  EXPECT_EQ(h.bin_count(0), 100u);
  EXPECT_EQ(h.bin_count(5), 300u);
  EXPECT_DOUBLE_EQ(h.pdf(0), 0.25);
  EXPECT_DOUBLE_EQ(h.pdf(5), 0.75);
  EXPECT_DOUBLE_EQ(h.pdf(9), 0.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.125);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 0.875);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.9);
  EXPECT_FALSE(e.seeded());
  e.add(5.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, MatchesClosedForm) {
  Ewma e(0.75);
  e.add(1.0);
  e.add(2.0);  // 0.75*1 + 0.25*2 = 1.25
  e.add(4.0);  // 0.75*1.25 + 0.25*4 = 1.9375
  EXPECT_DOUBLE_EQ(e.value(), 1.9375);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.99);
  for (int i = 0; i < 5000; ++i) e.add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, HeavyHistorySmoothsSpikes) {
  Ewma fast(0.5), slow(0.99);
  for (int i = 0; i < 100; ++i) {
    fast.add(1.0);
    slow.add(1.0);
  }
  fast.add(100.0);
  slow.add(100.0);
  EXPECT_GT(fast.value(), 50.0);
  EXPECT_LT(slow.value(), 2.5);
}

TEST(MovingAverage, WindowedMean) {
  MovingAverage m(3);
  m.add(1);
  EXPECT_DOUBLE_EQ(m.value(), 1.0);
  m.add(2);
  m.add(3);
  EXPECT_TRUE(m.full());
  EXPECT_DOUBLE_EQ(m.value(), 2.0);
  m.add(10);  // window is {2,3,10}
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
}

class JainProperty : public ::testing::TestWithParam<int> {};

TEST_P(JainProperty, WorstCaseIsOneOverN) {
  const int n = GetParam();
  std::vector<double> xs(n, 0.0);
  xs[0] = 1.0;
  EXPECT_NEAR(jain_index(xs), 1.0 / n, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JainProperty,
                         ::testing::Values(1, 2, 5, 10, 100, 1000));

}  // namespace
}  // namespace pert::stats
