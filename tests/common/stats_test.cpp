#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace dvs {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)(s.mean()), std::logic_error);
  EXPECT_THROW((void)(s.min()), std::logic_error);
  EXPECT_THROW((void)(s.max()), std::logic_error);
  s.add(1.0);
  EXPECT_THROW((void)(s.variance()), std::logic_error);  // needs >= 2
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng{5};
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(2.0);
  a.merge(b);  // empty <- nonempty
  EXPECT_EQ(a.count(), 1u);
  RunningStats c;
  a.merge(c);  // nonempty <- empty
  EXPECT_EQ(a.count(), 1u);
}

TEST(RunningStats, MergeAddsTheSums) {
  RunningStats a;
  RunningStats b;
  for (double x : {1.5, 2.5}) a.add(x);
  for (double x : {4.0, 8.0, -6.0}) b.add(x);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), -6.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
}

TEST(RunningStats, StableUnderALargeOffset) {
  // Welford's update keeps the variance of a small spread riding on a large
  // offset; the textbook sum-of-squares formula loses it to cancellation.
  RunningStats s;
  for (double x : {4.0, 7.0, 13.0, 16.0}) s.add(1e9 + x);
  EXPECT_DOUBLE_EQ(s.mean(), 1e9 + 10.0);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
}

TEST(RunningStats, ConstantStreamHasZeroSpread) {
  RunningStats s;
  for (int i = 0; i < 5; ++i) s.add(0.1);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), s.max());
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  for (double x : {3.0, -4.0, 10.0}) s.add(x);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_THROW((void)(s.mean()), std::logic_error);
  // Extrema start over too: a stale max of 10 must not survive.
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(SampleQuantiles, EmptyAndOutOfRangeThrow) {
  SampleQuantiles q;
  EXPECT_THROW((void)(q.median()), std::logic_error);
  q.add(1.0);
  EXPECT_THROW((void)(q.quantile(-0.01)), std::domain_error);
  EXPECT_THROW((void)(q.quantile(1.01)), std::domain_error);
}

TEST(SampleQuantiles, SingleSampleIsEveryQuantile) {
  SampleQuantiles q;
  q.add(7.5);
  for (double p : {0.0, 0.3, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(q.quantile(p), 7.5) << "q=" << p;
  }
}

TEST(SampleQuantiles, ExactSmallSample) {
  SampleQuantiles q;
  for (double x : {3.0, 1.0, 2.0, 4.0, 5.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
}

TEST(SampleQuantiles, AddAfterQueryResorts) {
  SampleQuantiles q;
  q.add(1.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  q.add(100.0);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
}

TEST(TimeWeightedStats, WeightsByDuration) {
  TimeWeightedStats tw;
  tw.add(1.0, 3.0);
  tw.add(5.0, 1.0);
  EXPECT_DOUBLE_EQ(tw.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 2.0);
  EXPECT_DOUBLE_EQ(tw.min(), 1.0);
  EXPECT_DOUBLE_EQ(tw.max(), 5.0);
}

TEST(TimeWeightedStats, ZeroDurationIgnoredNegativeThrows) {
  TimeWeightedStats tw;
  tw.add(99.0, 0.0);
  EXPECT_THROW((void)(tw.mean()), std::logic_error);
  EXPECT_THROW((void)(tw.add(1.0, -1.0)), std::domain_error);
}

TEST(TimeWeightedStats, EmptyExtremaThrow) {
  TimeWeightedStats tw;
  EXPECT_DOUBLE_EQ(tw.total_time(), 0.0);
  EXPECT_THROW((void)(tw.min()), std::logic_error);
  EXPECT_THROW((void)(tw.max()), std::logic_error);
}

TEST(TimeWeightedStats, ZeroDurationValueLeavesExtremaAlone) {
  // A value held for no time was never the signal's level.
  TimeWeightedStats tw;
  tw.add(2.0, 1.0);
  tw.add(99.0, 0.0);
  tw.add(-50.0, 0.0);
  tw.add(4.0, 1.0);
  EXPECT_DOUBLE_EQ(tw.min(), 2.0);
  EXPECT_DOUBLE_EQ(tw.max(), 4.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 3.0);
  EXPECT_DOUBLE_EQ(tw.total_time(), 2.0);
}

}  // namespace
}  // namespace dvs
