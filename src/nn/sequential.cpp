#include "nn/sequential.h"

#include <stdexcept>

namespace cmfl::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  if (!layers_.empty() && layers_.back()->out_dim() != layer->in_dim()) {
    throw std::invalid_argument(
        "Sequential::add: " + layers_.back()->name() + " outputs " +
        std::to_string(layers_.back()->out_dim()) + " but " + layer->name() +
        " expects " + std::to_string(layer->in_dim()));
  }
  layers_.push_back(std::move(layer));
}

std::size_t Sequential::in_dim() const {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  return layers_.front()->in_dim();
}

std::size_t Sequential::out_dim() const {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  return layers_.back()->out_dim();
}

void Sequential::forward(const tensor::Matrix& in, tensor::Matrix& out,
                         bool training) {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  const std::size_t count = layers_.size();
  if (count == 1) {
    layers_[0]->forward(in, out, training);
    return;
  }
  // acts_[i] receives layer i's output; layer i+1 reads it in place.  The
  // vector keeps its Matrix elements (and their heap buffers) across steps.
  if (acts_.size() != count - 1) acts_.resize(count - 1);
  layers_[0]->forward(in, acts_[0], training);
  for (std::size_t i = 1; i + 1 < count; ++i) {
    layers_[i]->forward(acts_[i - 1], acts_[i], training);
  }
  layers_[count - 1]->forward(acts_[count - 2], out, training);
}

const tensor::Matrix& Sequential::backward(const tensor::Matrix& grad_out) {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  const tensor::Matrix* grad = &grad_out;
  tensor::Matrix* next = &gbuf_a_;
  tensor::Matrix* spare = &gbuf_b_;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    (*it)->backward(*grad, *next);
    grad = next;
    std::swap(next, spare);
  }
  return *grad;
}

void Sequential::init_params(util::Rng& rng) {
  for (auto& layer : layers_) layer->init_params(rng);
}

void Sequential::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

ParamPack Sequential::params() {
  std::vector<std::span<float>> views;
  for (auto& layer : layers_) layer->collect_params(views);
  return ParamPack(std::move(views));
}

ParamPack Sequential::grads() {
  std::vector<std::span<float>> views;
  for (auto& layer : layers_) layer->collect_grads(views);
  return ParamPack(std::move(views));
}

}  // namespace cmfl::nn
