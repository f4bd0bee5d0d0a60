#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace smtbal {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(7.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
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
  const double mean = sum / static_cast<double>(values.size());
  double m2 = 0.0;
  for (double v : values) m2 += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), m2 / static_cast<double>(values.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 12.25);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(99);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform() * 100 - 50;
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats, empty;
  stats.add(1.0);
  stats.add(2.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 1.5);

  RunningStats other;
  other.merge(stats);
  EXPECT_EQ(other.count(), 2u);
  EXPECT_DOUBLE_EQ(other.mean(), 1.5);
}

TEST(RunningStats, ResetClears) {
  RunningStats stats;
  stats.add(5.0);
  stats.reset();
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.sum(), 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), InvalidArgument);
  EXPECT_THROW(Histogram(2.0, 1.0, 10), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, CountsLandInRightBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(+100.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(Histogram, QuantileRejectsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW((void)h.quantile(-0.1), InvalidArgument);
  EXPECT_THROW((void)h.quantile(1.1), InvalidArgument);
}

TEST(Histogram, RenderEmpty) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.render(), "(empty histogram)\n");
}

TEST(Histogram, RenderShowsNonEmptyBins) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(2.5);
  h.add(2.6);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
  // Two distinct bins rendered.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(RelDiff, Basics) {
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(-1.0, 1.0), 2.0);
}

}  // namespace
}  // namespace smtbal
