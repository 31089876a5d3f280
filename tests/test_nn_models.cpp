// Model-level tests: parameter round-trips, training actually reduces loss,
// evaluation bookkeeping.
#include <gtest/gtest.h>

#include "nn/feed_forward.h"
#include "nn/lstm_lm.h"
#include "util/rng.h"

namespace cmfl::nn {
namespace {

TEST(FeedForward, ParamRoundTrip) {
  util::Rng rng(1);
  FeedForward model = make_mlp(4, {6}, 3, rng);
  const std::size_t n = model.param_count();
  EXPECT_EQ(n, 4u * 6 + 6 + 6 * 3 + 3);
  std::vector<float> params(n);
  model.get_params(params);
  std::vector<float> modified = params;
  for (auto& v : modified) v += 1.0f;
  model.set_params(modified);
  std::vector<float> read_back(n);
  model.get_params(read_back);
  EXPECT_EQ(read_back, modified);
}

TEST(FeedForward, TrainingReducesLossOnFixedBatch) {
  util::Rng rng(2);
  FeedForward model = make_mlp(6, {12}, 2, rng);
  tensor::Matrix x(16, 6);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < 16; ++i) {
    y[i] = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < 6; ++j) {
      x.at(i, j) = (y[i] ? 1.0f : -1.0f) + rng.normal_f(0.0f, 0.3f);
    }
  }
  const double before = model.evaluate(x, y).loss;
  for (int step = 0; step < 50; ++step) model.train_batch(x, y, 0.1f);
  const double after = model.evaluate(x, y).loss;
  EXPECT_LT(after, before * 0.5);
  EXPECT_GT(model.evaluate(x, y).accuracy, 0.9);
}

TEST(FeedForward, EvaluateDoesNotMutateParams) {
  util::Rng rng(3);
  FeedForward model = make_mlp(4, {}, 2, rng);
  std::vector<float> before(model.param_count());
  model.get_params(before);
  tensor::Matrix x(3, 4);
  std::vector<int> y = {0, 1, 0};
  model.evaluate(x, y);
  std::vector<float> after(model.param_count());
  model.get_params(after);
  EXPECT_EQ(before, after);
}

TEST(FeedForward, DigitsCnnShapes) {
  util::Rng rng(4);
  CnnSpec spec;
  spec.image_size = 12;
  FeedForward model = make_digits_cnn(spec, rng);
  EXPECT_EQ(model.input_dim(), 144u);
  EXPECT_EQ(model.num_classes(), 10u);
  EXPECT_GT(model.param_count(), 1000u);
  EXPECT_THROW(
      [] {
        util::Rng r(1);
        CnnSpec bad;
        bad.image_size = 10;  // not divisible by 4
        return make_digits_cnn(bad, r);
      }(),
      std::invalid_argument);
}

TEST(LstmLm, ParamRoundTripAndCount) {
  LstmLmSpec spec;
  spec.vocab = 20;
  spec.embed_dim = 4;
  spec.hidden_dim = 6;
  spec.layers = 1;
  LstmLm model(spec);
  util::Rng rng(6);
  model.init_params(rng);
  const std::size_t expected = 20 * 4                      // embedding
                               + 4 * 6 * 4 + 4 * 6 * 6 + 4 * 6  // lstm
                               + 6 * 20 + 20;              // head
  EXPECT_EQ(model.param_count(), expected);
  std::vector<float> params(model.param_count());
  model.get_params(params);
  for (auto& v : params) v *= 0.5f;
  model.set_params(params);
  std::vector<float> back(model.param_count());
  model.get_params(back);
  EXPECT_EQ(back, params);
}

TEST(LstmLm, RejectsBadLayerCount) {
  LstmLmSpec spec;
  spec.layers = 3;
  EXPECT_THROW(LstmLm{spec}, std::invalid_argument);
  spec.layers = 0;
  EXPECT_THROW(LstmLm{spec}, std::invalid_argument);
}

TEST(LstmLm, TrainingLearnsDeterministicSequence) {
  // Token i is always followed by token (i+1) mod V — the model should
  // learn this transition nearly perfectly.
  LstmLmSpec spec;
  spec.vocab = 6;
  spec.embed_dim = 8;
  spec.hidden_dim = 16;
  LstmLm model(spec);
  util::Rng rng(7);
  model.init_params(rng);

  SeqBatch x;
  x.batch = 12;
  x.seq_len = 4;
  x.tokens.resize(x.batch * x.seq_len);
  std::vector<int> y(x.batch);
  for (std::size_t i = 0; i < x.batch; ++i) {
    const int start = static_cast<int>(i % 6);
    for (std::size_t t = 0; t < x.seq_len; ++t) {
      x.tokens[i * x.seq_len + t] = (start + static_cast<int>(t)) % 6;
    }
    y[i] = (start + static_cast<int>(x.seq_len)) % 6;
  }
  const double before = model.evaluate(x, y).loss;
  for (int step = 0; step < 150; ++step) model.train_batch(x, y, 0.3f);
  const EvalResult after = model.evaluate(x, y);
  EXPECT_LT(after.loss, before * 0.3);
  EXPECT_GT(after.accuracy, 0.9);
}

TEST(LstmLm, MalformedBatchRejected) {
  LstmLmSpec spec;
  spec.vocab = 5;
  LstmLm model(spec);
  util::Rng rng(8);
  model.init_params(rng);
  SeqBatch x;
  x.batch = 2;
  x.seq_len = 3;
  x.tokens.resize(5);  // wrong size
  std::vector<int> y = {0, 1};
  EXPECT_THROW(model.evaluate(x, y), std::invalid_argument);
}

TEST(EvalResult, MergeIsWeighted) {
  EvalResult a{1.0, 0.5, 10};
  EvalResult b{3.0, 1.0, 30};
  const EvalResult m = merge(a, b);
  EXPECT_EQ(m.samples, 40u);
  EXPECT_NEAR(m.loss, 2.5, 1e-9);
  EXPECT_NEAR(m.accuracy, 0.875, 1e-9);
  const EvalResult empty;
  const EvalResult same = merge(empty, a);
  EXPECT_NEAR(same.accuracy, 0.5, 1e-12);
}

}  // namespace
}  // namespace cmfl::nn
