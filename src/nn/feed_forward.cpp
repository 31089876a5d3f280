#include "nn/feed_forward.h"

#include <memory>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"

namespace cmfl::nn {

EvalResult merge(const EvalResult& a, const EvalResult& b) noexcept {
  EvalResult out;
  out.samples = a.samples + b.samples;
  if (out.samples == 0) return out;
  const double wa = static_cast<double>(a.samples);
  const double wb = static_cast<double>(b.samples);
  out.loss = (a.loss * wa + b.loss * wb) / (wa + wb);
  out.accuracy = (a.accuracy * wa + b.accuracy * wb) / (wa + wb);
  return out;
}

FeedForward::FeedForward(Sequential net) : net_(std::move(net)) {
  if (net_.layer_count() == 0) {
    throw std::invalid_argument("FeedForward: empty network");
  }
}

ParamPack& FeedForward::params_pack() {
  if (!packs_built_) {
    params_cache_ = net_.params();
    grads_cache_ = net_.grads();
    packs_built_ = true;
  }
  return params_cache_;
}

ParamPack& FeedForward::grads_pack() {
  params_pack();  // builds both
  return grads_cache_;
}

std::size_t FeedForward::param_count() { return params_pack().total_size(); }

void FeedForward::get_params(std::span<float> out) {
  params_pack().copy_to(out);
}

void FeedForward::set_params(std::span<const float> in) {
  params_pack().copy_from(in);
}

void FeedForward::get_grads(std::span<float> out) {
  grads_pack().copy_to(out);
}

double FeedForward::compute_grads(const tensor::Matrix& x,
                                  std::span<const int> y) {
  net_.zero_grads();
  net_.forward(x, logits_, /*training=*/true);
  const double loss = softmax_cross_entropy(logits_, y, loss_grad_);
  net_.backward(loss_grad_);
  return loss;
}

double FeedForward::train_batch(const tensor::Matrix& x,
                                std::span<const int> y, float lr) {
  const double loss = compute_grads(x, y);
  params_pack().axpy_from(-lr, grads_pack());
  return loss;
}

EvalResult FeedForward::evaluate(const tensor::Matrix& x,
                                 std::span<const int> y) {
  net_.forward(x, logits_, /*training=*/false);
  tensor::Matrix probs = softmax(logits_);
  EvalResult result;
  result.samples = x.rows();
  result.accuracy = accuracy(logits_, y);
  // Mean negative log-likelihood from the already-computed probabilities.
  double loss = 0.0;
  for (std::size_t r = 0; r < logits_.rows(); ++r) {
    const double p = std::max(
        1e-12,
        static_cast<double>(probs.at(r, static_cast<std::size_t>(y[r]))));
    loss -= std::log(p);
  }
  result.loss = x.rows() ? loss / static_cast<double>(x.rows()) : 0.0;
  return result;
}

FeedForward make_digits_cnn(const CnnSpec& spec, util::Rng& rng) {
  if (spec.image_size % 4 != 0) {
    throw std::invalid_argument(
        "make_digits_cnn: image_size must be divisible by 4 (two 2x2 pools)");
  }
  Sequential net;
  Conv2dSpec c1;
  c1.in_channels = 1;
  c1.in_height = c1.in_width = spec.image_size;
  c1.out_channels = spec.conv1_filters;
  c1.kernel = spec.kernel;
  c1.padding = (spec.kernel - 1) / 2;
  auto conv1 = std::make_unique<Conv2d>(c1);
  const std::size_t h1 = conv1->out_height();
  net.add(std::move(conv1));
  net.add(std::make_unique<ReLU>(spec.conv1_filters * h1 * h1));
  Pool2dSpec p1{spec.conv1_filters, h1, h1, 2};
  net.add(std::make_unique<MaxPool2d>(p1));

  const std::size_t h2_in = h1 / 2;
  Conv2dSpec c2;
  c2.in_channels = spec.conv1_filters;
  c2.in_height = c2.in_width = h2_in;
  c2.out_channels = spec.conv2_filters;
  c2.kernel = spec.kernel;
  c2.padding = (spec.kernel - 1) / 2;
  auto conv2 = std::make_unique<Conv2d>(c2);
  const std::size_t h2 = conv2->out_height();
  net.add(std::move(conv2));
  net.add(std::make_unique<ReLU>(spec.conv2_filters * h2 * h2));
  Pool2dSpec p2{spec.conv2_filters, h2, h2, 2};
  net.add(std::make_unique<MaxPool2d>(p2));

  const std::size_t flat = spec.conv2_filters * (h2 / 2) * (h2 / 2);
  net.add(std::make_unique<Dense>(flat, spec.fc_width));
  net.add(std::make_unique<ReLU>(spec.fc_width));
  net.add(std::make_unique<Dense>(spec.fc_width, spec.classes));

  FeedForward model(std::move(net));
  model.init_params(rng);
  return model;
}

FeedForward make_mlp(std::size_t in, std::vector<std::size_t> hidden,
                     std::size_t classes, util::Rng& rng) {
  Sequential net;
  std::size_t prev = in;
  for (std::size_t width : hidden) {
    net.add(std::make_unique<Dense>(prev, width));
    net.add(std::make_unique<ReLU>(width));
    prev = width;
  }
  net.add(std::make_unique<Dense>(prev, classes));
  FeedForward model(std::move(net));
  model.init_params(rng);
  return model;
}

}  // namespace cmfl::nn
