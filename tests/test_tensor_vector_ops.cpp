#include "tensor/vector_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace cmfl::tensor {
namespace {

TEST(VectorOps, AxpyAccumulates) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> y = {10.0f, 20.0f, 30.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(VectorOps, AxpySizeMismatchThrows) {
  std::vector<float> x = {1.0f};
  std::vector<float> y = {1.0f, 2.0f};
  EXPECT_THROW(axpy(1.0f, x, y), std::invalid_argument);
}

TEST(VectorOps, Norms) {
  std::vector<float> x = {3.0f, -4.0f};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(VectorOps, NormsOfEmpty) {
  std::vector<float> x;
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(VectorOps, SubAndAdd) {
  std::vector<float> x = {5.0f, 7.0f};
  std::vector<float> y = {2.0f, 10.0f};
  std::vector<float> z(2);
  sub(x, y, z);
  EXPECT_FLOAT_EQ(z[0], 3.0f);
  EXPECT_FLOAT_EQ(z[1], -3.0f);
  add(x, y, z);
  EXPECT_FLOAT_EQ(z[0], 7.0f);
  EXPECT_FLOAT_EQ(z[1], 17.0f);
}

TEST(VectorOps, SignConvention) {
  EXPECT_EQ(sign(2.5f), 1);
  EXPECT_EQ(sign(-0.1f), -1);
  EXPECT_EQ(sign(0.0f), 0);
  EXPECT_EQ(sign(-0.0f), 0);
}

TEST(VectorOps, CountSignMatchesBasic) {
  std::vector<float> x = {1.0f, -2.0f, 0.0f, 3.0f};
  std::vector<float> y = {5.0f, -1.0f, 0.0f, -3.0f};
  // matches: +/+, -/-, 0/0; mismatch: +/-
  EXPECT_EQ(count_sign_matches(x, y), 3u);
}

TEST(VectorOps, CountSignMatchesZeroVsNonzero) {
  std::vector<float> x = {0.0f, 0.0f};
  std::vector<float> y = {1.0f, -1.0f};
  EXPECT_EQ(count_sign_matches(x, y), 0u);
}

TEST(VectorOps, FillAndScale) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  scale(x, 2.0f);
  EXPECT_FLOAT_EQ(x[1], 4.0f);
  fill(x, -1.0f);
  for (float v : x) EXPECT_FLOAT_EQ(v, -1.0f);
}

// Property sweep on norm2: ||x||_inf <= ||x||_2 <= ||x||_1 <= sqrt(n)||x||_2
// for random vectors. The L1 and L-inf norms are computed here as oracles.
class NormOrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(NormOrderingTest, NormInequalitiesHold) {
  const int seed = GetParam();
  std::vector<float> x(64);
  unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
  for (auto& v : x) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<float>(static_cast<int>(state % 2001) - 1000) / 100.0f;
  }
  double n1 = 0.0, ni = 0.0;
  for (float v : x) {
    n1 += std::fabs(v);
    ni = std::max(ni, static_cast<double>(std::fabs(v)));
  }
  const double n2 = norm2(x);
  EXPECT_LE(ni, n2 + 1e-9);
  EXPECT_LE(n2, n1 + 1e-9);
  EXPECT_LE(n1, std::sqrt(static_cast<double>(x.size())) * n2 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormOrderingTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace cmfl::tensor
