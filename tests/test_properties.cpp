// Cross-module property sweeps (parameterized): invariants that must hold
// for arbitrary sizes/seeds, exercised across a grid.
#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/relevance.h"
#include "core/significance.h"
#include "net/message.h"
#include "stats/cdf.h"
#include "util/rng.h"

#include <cmath>

namespace cmfl {
namespace {

class SizeSeedTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
 protected:
  std::vector<float> random_vec(std::size_t n, std::uint64_t salt) {
    util::Rng rng(std::get<1>(GetParam()) * 1000 + salt);
    std::vector<float> v(n);
    for (auto& x : v) x = rng.uniform_f(-2.0f, 2.0f);
    return v;
  }
  std::size_t n() const { return std::get<0>(GetParam()); }
};

TEST_P(SizeSeedTest, RelevanceBounded) {
  const auto u = random_vec(n(), 1);
  const auto g = random_vec(n(), 2);
  const double e = core::relevance(u, g);
  EXPECT_GE(e, 0.0);
  EXPECT_LE(e, 1.0);
  // Symmetry: sign agreement is commutative.
  EXPECT_DOUBLE_EQ(core::relevance(g, u), e);
}

TEST_P(SizeSeedTest, RelevanceOfNegationComplements) {
  auto u = random_vec(n(), 3);
  const auto g = random_vec(n(), 4);
  // Perturb away exact zeros so the complement identity is exact.
  for (auto& x : u) {
    if (x == 0.0f) x = 0.5f;
  }
  const double e = core::relevance(u, g);
  for (auto& x : u) x = -x;
  // With u nonzero everywhere, flipping u flips every match against a
  // nonzero g_j; zero g_j entries match neither sign, so
  //   e + e(-u, g) = (N - #zeros(g)) / N.
  std::size_t zeros_g = 0;
  for (float x : g) zeros_g += x == 0.0f;
  const double expected =
      (static_cast<double>(n() - zeros_g) / static_cast<double>(n())) - e;
  EXPECT_NEAR(core::relevance(u, g), expected, 1e-12);
}

TEST_P(SizeSeedTest, SignificanceScalesLinearly) {
  const auto u = random_vec(n(), 5);
  const auto x = random_vec(n(), 6);
  const double s = core::norm_ratio_significance(u, x);
  auto u2 = u;
  for (auto& v : u2) v *= 3.0f;
  EXPECT_NEAR(core::norm_ratio_significance(u2, x), 3.0 * s, 3e-6 * (1 + s));
}

TEST_P(SizeSeedTest, DeltaUpdateTriangleSanity) {
  const auto a = random_vec(n(), 7);
  const auto b = random_vec(n(), 8);
  const double d = core::normalized_update_difference(a, b);
  EXPECT_GE(d, 0.0);
  // Identical updates have zero difference.
  EXPECT_DOUBLE_EQ(core::normalized_update_difference(a, a), 0.0);
}

TEST_P(SizeSeedTest, UpdateFrameRoundTrips) {
  net::UpdateUploadMsg msg;
  msg.iteration = std::get<1>(GetParam());
  msg.client_id = static_cast<std::uint32_t>(n() % 97);
  msg.update = random_vec(n(), 10);
  msg.score = 0.5;
  const auto frame = net::encode(net::Message(msg));
  const net::Message decoded = net::decode(frame);
  const auto& d = std::get<net::UpdateUploadMsg>(decoded);
  EXPECT_EQ(d.update, msg.update);
  EXPECT_EQ(d.client_id, msg.client_id);
}

TEST_P(SizeSeedTest, CdfQuantileInvertsFraction) {
  util::Rng rng(std::get<1>(GetParam()));
  std::vector<double> samples(n());
  for (auto& s : samples) s = rng.normal();
  const stats::Cdf cdf(samples);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double x = cdf.quantile(q);
    EXPECT_GE(cdf.fraction_at_or_below(x) + 1e-12, q);
  }
}

TEST_P(SizeSeedTest, EstimatorPreviousUpdateIsExact) {
  core::GlobalUpdateEstimator est(n());
  const auto u1 = random_vec(n(), 11);
  const auto u2 = random_vec(n(), 12);
  est.observe(u1);
  est.observe(u2);
  for (std::size_t i = 0; i < n(); ++i) {
    EXPECT_FLOAT_EQ(est.estimate()[i], u2[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SizeSeedTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 64, 1000),
                       ::testing::Values<std::uint64_t>(1, 7, 42)));

}  // namespace
}  // namespace cmfl
