#include "pscd/util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pscd {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, HandlesNegatives) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(HourlySeriesTest, BucketsByHour) {
  HourlySeries s(24);
  s.add(0.0, 1.0);
  s.add(3599.0, 1.0);
  s.add(3600.0, 5.0);
  EXPECT_DOUBLE_EQ(s.numerator(0), 2.0);
  EXPECT_DOUBLE_EQ(s.numerator(1), 5.0);
  EXPECT_DOUBLE_EQ(s.denominator(0), 2.0);
}

TEST(HourlySeriesTest, RatioHandlesEmptyHours) {
  HourlySeries s(3);
  s.add(3700.0, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(s.ratio(0), 0.0);
  EXPECT_DOUBLE_EQ(s.ratio(1), 0.75);
}

TEST(HourlySeriesTest, ClampsOutOfRange) {
  HourlySeries s(2);
  s.add(-5.0, 1.0);
  s.add(1e9, 1.0);
  EXPECT_DOUBLE_EQ(s.numerator(0), 1.0);
  EXPECT_DOUBLE_EQ(s.numerator(1), 1.0);
}

TEST(HourlySeriesTest, RejectsZeroHours) {
  EXPECT_THROW(HourlySeries(0), std::invalid_argument);
}

}  // namespace
}  // namespace pscd
