// Behavioural (non-gradient) layer tests: shapes, validation, forward
// semantics, parameter bookkeeping.
#include <gtest/gtest.h>

#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/param_pack.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace cmfl::nn {
namespace {

TEST(Dense, ForwardComputesAffineMap) {
  Dense dense(2, 2);
  std::vector<std::span<float>> params;
  dense.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  // W = [[1, 2], [3, 4]], b = [10, 20]
  params[0][0] = 1; params[0][1] = 2; params[0][2] = 3; params[0][3] = 4;
  params[1][0] = 10; params[1][1] = 20;
  tensor::Matrix in(1, 2, {5, 6});
  tensor::Matrix out;
  dense.forward(in, out, false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 5 + 2 * 6 + 10);
  EXPECT_FLOAT_EQ(out.at(0, 1), 3 * 5 + 4 * 6 + 20);
}

TEST(Dense, RejectsBadShapes) {
  EXPECT_THROW(Dense(0, 3), std::invalid_argument);
  Dense dense(3, 2);
  tensor::Matrix wrong(1, 4);
  tensor::Matrix out;
  EXPECT_THROW(dense.forward(wrong, out, false), std::invalid_argument);
}

TEST(ReLU, ClampsNegative) {
  ReLU relu(3);
  tensor::Matrix in(1, 3, {-1.0f, 0.0f, 2.0f});
  tensor::Matrix out;
  relu.forward(in, out, false);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 2.0f);
}

TEST(ReLU, BackwardMasksByInput) {
  ReLU relu(2);
  tensor::Matrix in(1, 2, {-1.0f, 1.0f});
  tensor::Matrix out;
  relu.forward(in, out, true);
  tensor::Matrix grad_out(1, 2, {5.0f, 7.0f});
  tensor::Matrix grad_in;
  relu.backward(grad_out, grad_in);
  EXPECT_FLOAT_EQ(grad_in.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 1), 7.0f);
}

TEST(Sigmoid, KnownValues) {
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6);
}

TEST(Conv2d, OutputDimsSameAndValid) {
  Conv2dSpec same{1, 8, 8, 4, 5, 2};
  Conv2d conv_same(same);
  EXPECT_EQ(conv_same.out_height(), 8u);
  EXPECT_EQ(conv_same.out_width(), 8u);
  Conv2dSpec valid{1, 8, 8, 4, 5, 0};
  Conv2d conv_valid(valid);
  EXPECT_EQ(conv_valid.out_height(), 4u);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1: output == input.
  Conv2dSpec spec{1, 4, 4, 1, 1, 0};
  Conv2d conv(spec);
  std::vector<std::span<float>> params;
  conv.collect_params(params);
  params[0][0] = 1.0f;  // single weight
  tensor::Matrix in(1, 16);
  for (std::size_t i = 0; i < 16; ++i) in.flat()[i] = static_cast<float>(i);
  tensor::Matrix out;
  conv.forward(in, out, false);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(out.flat()[i], static_cast<float>(i));
  }
}

TEST(Conv2d, RejectsOversizedKernel) {
  Conv2dSpec spec{1, 3, 3, 1, 7, 0};
  EXPECT_THROW(Conv2d{spec}, std::invalid_argument);
}

TEST(MaxPool2d, PicksWindowMaximum) {
  Pool2dSpec spec{1, 4, 4, 2};
  MaxPool2d pool(spec);
  tensor::Matrix in(1, 16);
  for (std::size_t i = 0; i < 16; ++i) in.flat()[i] = static_cast<float>(i);
  tensor::Matrix out;
  pool.forward(in, out, false);
  ASSERT_EQ(out.cols(), 4u);
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 13.0f);
  EXPECT_FLOAT_EQ(out.at(0, 3), 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  Pool2dSpec spec{1, 2, 2, 2};
  MaxPool2d pool(spec);
  tensor::Matrix in(1, 4, {1.0f, 9.0f, 3.0f, 2.0f});
  tensor::Matrix out;
  pool.forward(in, out, false);
  tensor::Matrix grad_out(1, 1, {4.0f});
  tensor::Matrix grad_in;
  pool.backward(grad_out, grad_in);
  EXPECT_FLOAT_EQ(grad_in.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 2), 0.0f);
}

TEST(MaxPool2d, RejectsIndivisibleDims) {
  Pool2dSpec spec{1, 5, 4, 2};
  EXPECT_THROW(MaxPool2d{spec}, std::invalid_argument);
}

TEST(Embedding, LookupGathersRows) {
  Embedding emb(4, 2);
  auto table = emb.params();
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i);
  }
  std::vector<int> tokens = {2, 0};
  tensor::Matrix out;
  emb.lookup_into(tokens, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
}

TEST(Embedding, RejectsOutOfRangeTokens) {
  Embedding emb(4, 2);
  tensor::Matrix out;
  std::vector<int> bad = {4};
  EXPECT_THROW(emb.lookup_into(bad, out), std::invalid_argument);
  std::vector<int> negative = {-1};
  EXPECT_THROW(emb.lookup_into(negative, out), std::invalid_argument);
}

TEST(Embedding, GradAccumulatesRepeatedTokens) {
  Embedding emb(3, 1);
  std::vector<int> tokens = {1, 1};
  tensor::Matrix grad(2, 1, {2.0f, 3.0f});
  emb.accumulate_grad(tokens, grad);
  EXPECT_FLOAT_EQ(emb.grads()[1], 5.0f);
}

TEST(Sequential, ValidatesChaining) {
  Sequential net;
  net.add(std::make_unique<Dense>(4, 8));
  EXPECT_THROW(net.add(std::make_unique<Dense>(9, 2)), std::invalid_argument);
  net.add(std::make_unique<ReLU>(8));
  EXPECT_EQ(net.in_dim(), 4u);
  EXPECT_EQ(net.out_dim(), 8u);
}

TEST(ParamPack, RoundTripAndAxpy) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, 5};
  ParamPack pack({std::span<float>(a), std::span<float>(b)});
  EXPECT_EQ(pack.total_size(), 5u);
  std::vector<float> flat(pack.total_size());
  pack.copy_to(flat);
  EXPECT_FLOAT_EQ(flat[3], 4.0f);
  std::vector<float> replacement = {10, 20, 30, 40, 50};
  pack.copy_from(replacement);
  EXPECT_FLOAT_EQ(a[2], 30.0f);
  EXPECT_FLOAT_EQ(b[1], 50.0f);
  std::vector<float> delta_a = {1, 1, 1};
  std::vector<float> delta_b = {1, 1};
  ParamPack delta({std::span<float>(delta_a), std::span<float>(delta_b)});
  pack.axpy_from(-2.0f, delta);
  EXPECT_FLOAT_EQ(a[0], 8.0f);
  std::vector<float> wrong(3);
  EXPECT_THROW(pack.copy_from(wrong), std::invalid_argument);
}

TEST(ParamPack, PackToPackAxpyChecksSegmentation) {
  std::vector<float> a = {1, 2};
  std::vector<float> ga = {10, 10};
  ParamPack p({std::span<float>(a)});
  ParamPack g({std::span<float>(ga)});
  p.axpy_from(0.5f, g);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  std::vector<float> b = {1.0f};
  ParamPack wrong({std::span<float>(b)});
  EXPECT_THROW(p.axpy_from(1.0f, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::nn
