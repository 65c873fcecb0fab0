// Statistics kit tests — these underpin Eq. (1) and the correctness metrics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "support/stats.h"

namespace prose {
namespace {

TEST(Stats, MedianOdd) {
  const std::array<double, 5> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, MedianEvenAveragesMiddlePair) {
  const std::array<double, 4> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, MedianSingle) {
  const std::array<double, 1> xs = {42.0};
  EXPECT_DOUBLE_EQ(median(xs), 42.0);
}

TEST(Stats, MedianIsOutlierRobust) {
  // The paper picks the median in Eq. (1) precisely to shed timing outliers.
  const std::array<double, 7> xs = {100, 101, 99, 100, 1e6, 100, 98};
  EXPECT_LE(median(xs), 101.0);
}

TEST(Stats, MeanAndStddev) {
  const std::array<double, 4> xs = {2, 4, 4, 6};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(Stats, L2Norm) {
  const std::array<double, 2> xs = {3, 4};
  EXPECT_DOUBLE_EQ(l2_norm(xs), 5.0);
}

TEST(Stats, L2NormAvoidsOverflow) {
  const std::array<double, 2> xs = {1e200, 1e200};
  EXPECT_NEAR(l2_norm(xs), 1e200 * std::sqrt(2.0), 1e188);
}

TEST(Stats, L2NormEmptyIsZero) {
  EXPECT_DOUBLE_EQ(l2_norm({}), 0.0);
}

TEST(Stats, RelativeErrorMatchesPaperExpression) {
  // |(baseline - variant) / baseline|
  EXPECT_DOUBLE_EQ(relative_error(10.0, 9.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(-10.0, -11.0), 0.1);
}

TEST(Stats, RelativeErrorZeroBaseline) {
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(0.0, 1.0)));
}

}  // namespace
}  // namespace prose
