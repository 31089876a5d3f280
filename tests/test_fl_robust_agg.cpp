// Robust aggregation rules and server-side update validation: exact math,
// outlier resistance, quarantine accounting, checkpoint restore.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "fl/robust_agg.h"

namespace cmfl::fl {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& updates) {
  std::vector<std::span<const float>> v;
  v.reserve(updates.size());
  for (const auto& u : updates) v.emplace_back(u);
  return v;
}

std::vector<float> aggregate(Aggregation rule,
                             const std::vector<std::vector<float>>& updates,
                             std::span<const float> weights = {},
                             RobustAggOptions opts = {}) {
  std::vector<float> out(updates.front().size());
  aggregate_updates(rule, views(updates), weights, opts, out);
  return out;
}

TEST(Aggregation, UniformMeanIsExact) {
  const auto out = aggregate(Aggregation::kUniformMean,
                             {{1.0f, -2.0f}, {3.0f, 4.0f}});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(Aggregation, SampleWeightedUsesWeights) {
  const std::vector<float> w = {0.75f, 0.25f};
  const auto out =
      aggregate(Aggregation::kSampleWeighted, {{4.0f}, {8.0f}}, w);
  EXPECT_FLOAT_EQ(out[0], 4.0f * 0.75f + 8.0f * 0.25f);
}

TEST(Aggregation, SampleWeightedRequiresMatchingWeights) {
  std::vector<float> out(1);
  const std::vector<std::vector<float>> ups = {{1.0f}, {2.0f}};
  const std::vector<float> w = {1.0f};  // one weight, two updates
  EXPECT_THROW(
      aggregate_updates(Aggregation::kSampleWeighted, views(ups), w, {}, out),
      std::invalid_argument);
}

TEST(Aggregation, MedianIgnoresASingleOutlier) {
  // Two honest updates agree; one Byzantine update is enormous.  The
  // coordinate-wise median sides with the honest majority; the mean is
  // dragged three orders of magnitude away.
  const std::vector<std::vector<float>> ups = {
      {1.0f, -1.0f}, {1.2f, -0.8f}, {1000.0f, -1000.0f}};
  const auto med = aggregate(Aggregation::kMedian, ups);
  EXPECT_FLOAT_EQ(med[0], 1.2f);
  EXPECT_FLOAT_EQ(med[1], -1.0f);
  const auto mean = aggregate(Aggregation::kUniformMean, ups);
  EXPECT_GT(mean[0], 300.0f);
}

TEST(Aggregation, TrimmedMeanDropsBothExtremes) {
  const std::vector<std::vector<float>> ups = {
      {-100.0f}, {1.0f}, {2.0f}, {3.0f}, {100.0f}};
  RobustAggOptions opts;
  opts.trim_fraction = 0.2;  // 5 updates -> trim 1 per side
  const auto out = aggregate(Aggregation::kTrimmedMean, ups, {}, opts);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
}

TEST(Aggregation, TrimmedMeanAlwaysKeepsASurvivor) {
  RobustAggOptions opts;
  opts.trim_fraction = 0.49;  // with 2 updates naive trimming would drop all
  const auto out =
      aggregate(Aggregation::kTrimmedMean, {{2.0f}, {4.0f}}, {}, opts);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_THROW(aggregate(Aggregation::kTrimmedMean, {{1.0f}}, {},
                         RobustAggOptions{.trim_fraction = 0.6}),
               std::invalid_argument);
  EXPECT_THROW(aggregate(Aggregation::kTrimmedMean, {{1.0f}}, {},
                         RobustAggOptions{.trim_fraction = std::nan("")}),
               std::invalid_argument);
}

TEST(Aggregation, NormClippedBoundsTheOutliersInfluence) {
  // Honest updates have norm 1; the attacker's has norm 1000.  With the
  // auto (median-norm) radius the attacker contributes at most norm 1/n.
  const std::vector<std::vector<float>> ups = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1000.0f, 0.0f}};
  const auto out = aggregate(Aggregation::kNormClippedMean, ups);
  EXPECT_NEAR(out[0], (1.0f + 0.0f + 1.0f) / 3.0f, 1e-5);
  EXPECT_NEAR(out[1], 1.0f / 3.0f, 1e-5);
}

TEST(Aggregation, NormClippedHonorsExplicitRadius) {
  RobustAggOptions opts;
  opts.clip_norm = 0.5;
  const auto out =
      aggregate(Aggregation::kNormClippedMean, {{2.0f, 0.0f}}, {}, opts);
  EXPECT_NEAR(out[0], 0.5f, 1e-6);  // clipped from norm 2 to 0.5, n = 1
}

TEST(Aggregation, RejectsEmptyAndMismatchedInput) {
  std::vector<float> out(2);
  EXPECT_THROW(aggregate_updates(Aggregation::kUniformMean, {}, {}, {}, out),
               std::invalid_argument);
  const std::vector<std::vector<float>> ups = {{1.0f, 2.0f}, {1.0f}};
  EXPECT_THROW(
      aggregate_updates(Aggregation::kMedian, views(ups), {}, {}, out),
      std::invalid_argument);
}

// --- UpdateValidator ---

std::vector<Verdict> screen(UpdateValidator& v,
                            const std::vector<std::size_t>& clients,
                            const std::vector<std::vector<float>>& updates) {
  return v.screen_round(clients, views(updates));
}

TEST(UpdateValidator, RejectsNonFiniteUpdates) {
  UpdateValidator v(3, {});
  const auto verdicts = screen(v, {0, 1, 2},
                               {{1.0f, 2.0f}, {kNaN, 0.0f}, {0.0f, kInf}});
  EXPECT_EQ(verdicts[0], Verdict::kAccept);
  EXPECT_EQ(verdicts[1], Verdict::kNonFinite);
  EXPECT_EQ(verdicts[2], Verdict::kNonFinite);
  EXPECT_EQ(v.report().rejected_nonfinite, 2u);
}

TEST(UpdateValidator, AbsoluteNormBound) {
  ValidationPolicy policy;
  policy.max_norm = 5.0;
  UpdateValidator v(2, policy);
  const auto verdicts = screen(v, {0, 1}, {{3.0f, 0.0f}, {6.0f, 0.0f}});
  EXPECT_EQ(verdicts[0], Verdict::kAccept);
  EXPECT_EQ(verdicts[1], Verdict::kNormExploded);
  EXPECT_EQ(v.report().rejected_norm, 1u);
  // Non-finite bounds are rejected: NaN would disable the check silently.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ValidationPolicy p;
    p.max_norm = bad;
    EXPECT_THROW(UpdateValidator(2, p), std::invalid_argument);
    p = ValidationPolicy{};
    p.norm_multiple = bad;
    EXPECT_THROW(UpdateValidator(2, p), std::invalid_argument);
  }
}

TEST(UpdateValidator, RelativeNormBoundUsesRoundMedian) {
  ValidationPolicy policy;
  policy.norm_multiple = 10.0;
  UpdateValidator v(4, policy);
  // Median norm ~1; the 100-norm update exceeds 10x the median.
  const auto verdicts = screen(
      v, {0, 1, 2, 3},
      {{1.0f, 0.0f}, {0.0f, 1.2f}, {0.9f, 0.0f}, {100.0f, 0.0f}});
  EXPECT_EQ(verdicts[0], Verdict::kAccept);
  EXPECT_EQ(verdicts[1], Verdict::kAccept);
  EXPECT_EQ(verdicts[2], Verdict::kAccept);
  EXPECT_EQ(verdicts[3], Verdict::kNormExploded);
}

TEST(UpdateValidator, RelativeRuleNeedsThreeFiniteUpdates) {
  ValidationPolicy policy;
  policy.norm_multiple = 2.0;
  UpdateValidator v(2, policy);
  // Only two updates: the relative rule stays quiet even though one norm
  // dwarfs the other.
  const auto verdicts = screen(v, {0, 1}, {{1.0f}, {100.0f}});
  EXPECT_EQ(verdicts[0], Verdict::kAccept);
  EXPECT_EQ(verdicts[1], Verdict::kAccept);
}

TEST(UpdateValidator, RepeatOffendersAreQuarantined) {
  ValidationPolicy policy;
  policy.quarantine_after = 2;
  UpdateValidator v(2, policy);
  for (int round = 0; round < 2; ++round) {
    screen(v, {0, 1}, {{1.0f}, {kNaN}});
  }
  EXPECT_TRUE(v.quarantined(1));
  EXPECT_FALSE(v.quarantined(0));
  // Further uploads from the quarantined client are discarded unseen, even
  // perfectly healthy ones.
  const auto verdicts = screen(v, {0, 1}, {{1.0f}, {1.0f}});
  EXPECT_EQ(verdicts[0], Verdict::kAccept);
  EXPECT_EQ(verdicts[1], Verdict::kQuarantined);
  EXPECT_EQ(v.report().discarded_quarantined, 1u);
  EXPECT_EQ(v.report().quarantined_count(), 1u);
  EXPECT_EQ(v.report().total_rejected(), 3u);
}

TEST(UpdateValidator, ZeroQuarantineAfterNeverQuarantines) {
  ValidationPolicy policy;
  policy.quarantine_after = 0;
  UpdateValidator v(1, policy);
  for (int round = 0; round < 10; ++round) {
    screen(v, {0}, {{kNaN}});
  }
  EXPECT_FALSE(v.quarantined(0));
  EXPECT_EQ(v.report().strikes[0], 10u);
}

TEST(UpdateValidator, RestoreRoundTripsReport) {
  ValidationPolicy policy;
  policy.quarantine_after = 1;
  UpdateValidator v(3, policy);
  screen(v, {0, 1, 2}, {{1.0f}, {kNaN}, {1.0f}});
  const ValidationReport saved = v.report();

  UpdateValidator fresh(3, policy);
  fresh.restore(saved);
  EXPECT_EQ(fresh.report(), saved);
  EXPECT_TRUE(fresh.quarantined(1));

  UpdateValidator wrong_size(2, policy);
  EXPECT_THROW(wrong_size.restore(saved), std::invalid_argument);
}

TEST(UpdateValidator, OutOfRangeClientThrows) {
  UpdateValidator v(2, {});
  const std::vector<std::vector<float>> ups = {{1.0f}};
  const std::vector<std::size_t> clients = {5};
  EXPECT_THROW(v.screen_round(clients, views(ups)), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::fl
