#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace smtbal {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(7.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.5);
  EXPECT_DOUBLE_EQ(stats.min(), 7.5);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_DOUBLE_EQ(stats.sum(), 7.5);
}

TEST(RunningStats, MatchesNaiveComputation) {
  std::vector<double> values{1.0, 2.0, 4.0, 8.0, -3.0, 0.5, 12.25};
  RunningStats stats;
  double sum = 0.0;
  for (double v : values) {
    stats.add(v);
    sum += v;
  }
  EXPECT_NEAR(stats.mean(), sum / static_cast<double>(values.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 12.25);
}

TEST(RunningStats, ResetClears) {
  RunningStats stats;
  stats.add(5.0);
  stats.reset();
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.sum(), 0.0);
}

}  // namespace
}  // namespace smtbal
