#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace poq::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(4.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> data{1.0, 2.0, 2.0, 3.0, 7.5, -1.0, 0.0};
  RunningStats stats;
  double sum = 0.0;
  for (double x : data) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(data.size());
  double ss = 0.0;
  for (double x : data) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), ss / static_cast<double>(data.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(5);
  RunningStats combined;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(3.0, 1.5);
    combined.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

}  // namespace
}  // namespace poq::util
