#include "core/significance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace cmfl::core {
namespace {

TEST(NormRatio, BasicRatio) {
  std::vector<float> u = {3.0f, 4.0f};   // ||u|| = 5
  std::vector<float> x = {6.0f, 8.0f};   // ||x|| = 10
  EXPECT_DOUBLE_EQ(norm_ratio_significance(u, x), 0.5);
}

TEST(NormRatio, ZeroModelNonzeroUpdateIsInfinite) {
  std::vector<float> u = {1.0f};
  std::vector<float> x = {0.0f};
  EXPECT_TRUE(std::isinf(norm_ratio_significance(u, x)));
}

TEST(NormRatio, BothZeroIsZero) {
  std::vector<float> u = {0.0f, 0.0f};
  std::vector<float> x = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(norm_ratio_significance(u, x), 0.0);
}

TEST(NormRatio, Validation) {
  std::vector<float> u = {1.0f};
  std::vector<float> x = {1.0f, 2.0f};
  EXPECT_THROW(norm_ratio_significance(u, x), std::invalid_argument);
  EXPECT_THROW(norm_ratio_significance({}, {}), std::invalid_argument);
}

// The paper's Fig. 2a argument: as updates shrink (training converges), the
// significance measure shrinks proportionally — NOT scale-invariant.
TEST(NormRatio, ScalesLinearlyWithUpdateMagnitude) {
  util::Rng rng(5);
  std::vector<float> u(64), x(64);
  for (auto& v : u) v = rng.uniform_f(-1.0f, 1.0f);
  for (auto& v : x) v = rng.uniform_f(-1.0f, 1.0f);
  const double base = norm_ratio_significance(u, x);
  std::vector<float> small = u;
  for (auto& v : small) v *= 0.01f;
  EXPECT_NEAR(norm_ratio_significance(small, x), base * 0.01, base * 1e-4);
}

}  // namespace
}  // namespace cmfl::core
