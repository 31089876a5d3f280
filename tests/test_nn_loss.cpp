#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cmfl::nn {
namespace {

TEST(Softmax, RowsSumToOne) {
  tensor::Matrix logits(2, 3, {1.0f, 2.0f, 3.0f, -5.0f, 0.0f, 5.0f});
  const tensor::Matrix p = softmax(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(p.at(r, c), 0.0f);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  tensor::Matrix logits(1, 2, {1000.0f, 999.0f});
  const tensor::Matrix p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0), 1.0 / (1.0 + std::exp(-1.0)), 1e-5);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  tensor::Matrix logits(1, 4);
  std::vector<int> y = {2};
  tensor::Matrix grad;
  const double loss = softmax_cross_entropy(logits, y, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  // Gradient: p - onehot, normalized by batch.
  EXPECT_NEAR(grad.at(0, 0), 0.25, 1e-6);
  EXPECT_NEAR(grad.at(0, 2), -0.75, 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  tensor::Matrix logits(3, 5);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.flat()[i] = static_cast<float>((i * 7 % 11)) * 0.3f - 1.0f;
  }
  std::vector<int> y = {0, 3, 4};
  tensor::Matrix grad;
  softmax_cross_entropy(logits, y, grad);
  for (std::size_t r = 0; r < 3; ++r) {
    double sum = 0;
    for (std::size_t c = 0; c < 5; ++c) sum += grad.at(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  tensor::Matrix logits(2, 3);
  std::vector<int> wrong_count = {0};
  tensor::Matrix grad;
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_count, grad),
               std::invalid_argument);
  std::vector<int> out_of_range = {0, 3};
  EXPECT_THROW(softmax_cross_entropy(logits, out_of_range, grad),
               std::invalid_argument);
  std::vector<int> negative = {0, -1};
  EXPECT_THROW(softmax_cross_entropy(logits, negative, grad),
               std::invalid_argument);
}

TEST(Accuracy, CountsArgmaxHits) {
  tensor::Matrix logits(3, 2, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  std::vector<int> y = {0, 1, 1};
  EXPECT_NEAR(accuracy(logits, y), 2.0 / 3.0, 1e-9);
}

TEST(ArgmaxRows, PicksMaxIndex) {
  tensor::Matrix logits(2, 3, {1.0f, 5.0f, 2.0f, 9.0f, 0.0f, 3.0f});
  const auto idx = argmax_rows(logits);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

}  // namespace
}  // namespace cmfl::nn
