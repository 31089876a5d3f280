// Finite-difference gradient checks for every layer and both model families.
//
// For each parameter θ_i (and input x_i), the analytic gradient from
// backward() must match (L(θ+h) − L(θ−h)) / 2h.  This is the ground-truth
// test for the hand-written backprop that all experiments rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/feed_forward.h"
#include "nn/loss.h"
#include "nn/lstm_lm.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace cmfl::nn {
namespace {

constexpr double kStep = 1e-3;
constexpr double kTol = 2e-2;
// Central differences through a float32 forward pass carry roughly
// eps_f32 · |loss| / (2h) ≈ 5e-5 of absolute noise; the acceptance
// criterion combines that absolute allowance with a relative tolerance
// (the standard gradient-check recipe).
constexpr double kAbsNoise = 6e-5;

/// Returns 0 when the pair passes |a−n| ≤ kAbsNoise + kTol·max(|a|,|n|),
/// else the relative error (reported in the failure message).
double rel_err(double analytic, double numeric) {
  const double scale = std::max(std::fabs(analytic), std::fabs(numeric));
  const double diff = std::fabs(analytic - numeric);
  if (diff <= kAbsNoise + kTol * scale) return 0.0;
  return diff / std::max(scale, 1e-12);
}

/// Checks d(loss)/d(params) for a FeedForward on a random batch.
void check_feed_forward(FeedForward& model, std::size_t batch,
                        util::Rng& rng) {
  tensor::Matrix x(batch, model.input_dim());
  for (float& v : x.flat()) v = rng.uniform_f(-1.0f, 1.0f);
  std::vector<int> y(batch);
  for (auto& label : y) {
    label = static_cast<int>(rng.uniform_index(model.num_classes()));
  }

  const std::size_t n = model.param_count();
  std::vector<float> params(n), grads(n);
  model.get_params(params);
  model.compute_grads(x, y);
  model.get_grads(grads);

  // Probe a deterministic subset of parameters (checking all is O(n²)).
  const std::size_t probes = std::min<std::size_t>(n, 60);
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t i = (p * 2654435761u) % n;
    const float saved = params[i];
    params[i] = saved + static_cast<float>(kStep);
    model.set_params(params);
    const double up = model.evaluate(x, y).loss;
    params[i] = saved - static_cast<float>(kStep);
    model.set_params(params);
    const double down = model.evaluate(x, y).loss;
    params[i] = saved;
    model.set_params(params);
    const double numeric = (up - down) / (2.0 * kStep);
    EXPECT_LT(rel_err(grads[i], numeric), kTol)
        << "param " << i << ": analytic " << grads[i] << " numeric "
        << numeric;
  }
}

TEST(GradCheck, DenseOnly) {
  util::Rng rng(1);
  FeedForward model = make_mlp(6, {}, 3, rng);
  check_feed_forward(model, 4, rng);
}

TEST(GradCheck, MlpWithReluHidden) {
  util::Rng rng(2);
  FeedForward model = make_mlp(8, {10, 7}, 4, rng);
  check_feed_forward(model, 5, rng);
}

TEST(GradCheck, Conv2dSamePadding) {
  util::Rng rng(4);
  Sequential net;
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = spec.in_width = 6;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.padding = 1;
  auto conv = std::make_unique<Conv2d>(spec);
  const std::size_t out = conv->out_dim();
  net.add(std::move(conv));
  net.add(std::make_unique<ReLU>(out));
  net.add(std::make_unique<Dense>(out, 2));
  FeedForward model(std::move(net));
  model.init_params(rng);
  check_feed_forward(model, 3, rng);
}

TEST(GradCheck, Conv2dValidPaddingMultiChannel) {
  util::Rng rng(5);
  Sequential net;
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.in_height = spec.in_width = 5;
  spec.out_channels = 2;
  spec.kernel = 3;
  spec.padding = 0;
  auto conv = std::make_unique<Conv2d>(spec);
  const std::size_t out = conv->out_dim();
  net.add(std::move(conv));
  net.add(std::make_unique<Dense>(out, 3));
  FeedForward model(std::move(net));
  model.init_params(rng);
  check_feed_forward(model, 2, rng);
}

TEST(GradCheck, MaxPoolInStack) {
  util::Rng rng(6);
  Sequential net;
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = spec.in_width = 8;
  spec.out_channels = 2;
  spec.kernel = 3;
  spec.padding = 1;
  auto conv = std::make_unique<Conv2d>(spec);
  net.add(std::move(conv));
  net.add(std::make_unique<ReLU>(2 * 8 * 8));
  Pool2dSpec pool{2, 8, 8, 2};
  net.add(std::make_unique<MaxPool2d>(pool));
  net.add(std::make_unique<Dense>(2 * 4 * 4, 3));
  FeedForward model(std::move(net));
  model.init_params(rng);
  check_feed_forward(model, 3, rng);
}

TEST(GradCheck, FullDigitsCnn) {
  util::Rng rng(7);
  CnnSpec spec;
  spec.image_size = 8;
  spec.conv1_filters = 2;
  spec.conv2_filters = 3;
  spec.kernel = 3;
  spec.fc_width = 8;
  spec.classes = 4;
  FeedForward model = make_digits_cnn(spec, rng);
  check_feed_forward(model, 2, rng);
}

void check_lstm_lm(LstmLm& model, std::size_t batch, std::size_t seq_len,
                   util::Rng& rng) {
  SeqBatch x;
  x.batch = batch;
  x.seq_len = seq_len;
  x.tokens.resize(batch * seq_len);
  for (auto& t : x.tokens) {
    t = static_cast<int>(rng.uniform_index(model.vocab()));
  }
  std::vector<int> y(batch);
  for (auto& label : y) {
    label = static_cast<int>(rng.uniform_index(model.vocab()));
  }

  const std::size_t n = model.param_count();
  std::vector<float> params(n), grads(n);
  model.get_params(params);
  model.compute_grads(x, y);
  model.get_grads(grads);

  const std::size_t probes = std::min<std::size_t>(n, 60);
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t i = (p * 2654435761u) % n;
    const float saved = params[i];
    params[i] = saved + static_cast<float>(kStep);
    model.set_params(params);
    const double up = model.evaluate(x, y).loss;
    params[i] = saved - static_cast<float>(kStep);
    model.set_params(params);
    const double down = model.evaluate(x, y).loss;
    params[i] = saved;
    model.set_params(params);
    const double numeric = (up - down) / (2.0 * kStep);
    EXPECT_LT(rel_err(grads[i], numeric), kTol)
        << "param " << i << ": analytic " << grads[i] << " numeric "
        << numeric;
  }
}

TEST(GradCheck, LstmLmOneLayer) {
  util::Rng rng(8);
  LstmLmSpec spec;
  spec.vocab = 12;
  spec.embed_dim = 5;
  spec.hidden_dim = 6;
  spec.layers = 1;
  LstmLm model(spec);
  model.init_params(rng);
  check_lstm_lm(model, 3, 4, rng);
}

TEST(GradCheck, LstmLmTwoLayers) {
  util::Rng rng(9);
  LstmLmSpec spec;
  spec.vocab = 10;
  spec.embed_dim = 4;
  spec.hidden_dim = 5;
  spec.layers = 2;
  LstmLm model(spec);
  model.init_params(rng);
  check_lstm_lm(model, 2, 5, rng);
}

TEST(GradCheck, LstmLmLongSequence) {
  util::Rng rng(10);
  LstmLmSpec spec;
  spec.vocab = 8;
  spec.embed_dim = 4;
  spec.hidden_dim = 4;
  spec.layers = 1;
  LstmLm model(spec);
  model.init_params(rng);
  check_lstm_lm(model, 2, 10, rng);
}

}  // namespace
}  // namespace cmfl::nn
