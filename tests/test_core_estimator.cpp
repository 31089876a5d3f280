#include "core/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cmfl::core {
namespace {

TEST(Estimator, StartsAtZero) {
  GlobalUpdateEstimator est(3);
  EXPECT_FALSE(est.has_observation());
  for (float v : est.estimate()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Estimator, PreviousUpdateMode) {
  GlobalUpdateEstimator est(2);
  est.observe(std::vector<float>{1.0f, -2.0f});
  EXPECT_TRUE(est.has_observation());
  EXPECT_FLOAT_EQ(est.estimate()[0], 1.0f);
  EXPECT_FLOAT_EQ(est.estimate()[1], -2.0f);
  est.observe(std::vector<float>{5.0f, 6.0f});
  EXPECT_FLOAT_EQ(est.estimate()[0], 5.0f);
}

TEST(Estimator, EmaBlends) {
  GlobalUpdateEstimator est(1, 0.5);
  est.observe(std::vector<float>{4.0f});  // first observation copies
  EXPECT_FLOAT_EQ(est.estimate()[0], 4.0f);
  est.observe(std::vector<float>{0.0f});
  EXPECT_FLOAT_EQ(est.estimate()[0], 2.0f);
  est.observe(std::vector<float>{2.0f});
  EXPECT_FLOAT_EQ(est.estimate()[0], 2.0f);
}

TEST(Estimator, Validation) {
  EXPECT_THROW(GlobalUpdateEstimator(0), std::invalid_argument);
  EXPECT_THROW(GlobalUpdateEstimator(2, 1.0), std::invalid_argument);
  EXPECT_THROW(GlobalUpdateEstimator(2, -0.1), std::invalid_argument);
  EXPECT_THROW(GlobalUpdateEstimator(2, std::nan("")), std::invalid_argument);
  GlobalUpdateEstimator est(2);
  EXPECT_THROW(est.observe(std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(DeltaUpdate, Eq8Definition) {
  std::vector<float> prev = {3.0f, 4.0f};            // norm 5
  std::vector<float> next = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(normalized_update_difference(prev, next), 0.0);
  next = {6.0f, 8.0f};                               // diff (3,4) -> norm 5
  EXPECT_DOUBLE_EQ(normalized_update_difference(prev, next), 1.0);
}

TEST(DeltaUpdate, ZeroPrevHandling) {
  std::vector<float> zero = {0.0f, 0.0f};
  std::vector<float> next = {1.0f, 0.0f};
  EXPECT_TRUE(std::isinf(normalized_update_difference(zero, next)));
  EXPECT_DOUBLE_EQ(normalized_update_difference(zero, zero), 0.0);
}

TEST(DeltaUpdate, Validation) {
  std::vector<float> a = {1.0f};
  std::vector<float> b = {1.0f, 2.0f};
  EXPECT_THROW(normalized_update_difference(a, b), std::invalid_argument);
  EXPECT_THROW(normalized_update_difference({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::core
