#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

namespace cmfl::nn {

float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

ReLU::ReLU(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("ReLU: dim must be positive");
}

std::string ReLU::name() const { return "ReLU(" + std::to_string(dim_) + ")"; }

void ReLU::forward(const tensor::Matrix& in, tensor::Matrix& out,
                   bool /*training*/) {
  if (in.cols() != dim_) {
    throw std::invalid_argument("ReLU::forward: input width mismatch");
  }
  cached_in_ = &in;
  out.resize(in.rows(), in.cols());
  auto src = in.flat();
  auto dst = out.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float v = src[i];
    dst[i] = v > 0.0f ? v : 0.0f;
  }
}

void ReLU::backward(const tensor::Matrix& grad_out, tensor::Matrix& grad_in) {
  if (cached_in_ == nullptr || grad_out.rows() != cached_in_->rows() ||
      grad_out.cols() != dim_) {
    throw std::invalid_argument("ReLU::backward: gradient shape mismatch");
  }
  grad_in.resize(grad_out.rows(), grad_out.cols());
  auto go = grad_out.flat();
  auto gi = grad_in.flat();
  auto ci = cached_in_->flat();
  for (std::size_t i = 0; i < gi.size(); ++i) {
    gi[i] = ci[i] <= 0.0f ? 0.0f : go[i];
  }
}

}  // namespace cmfl::nn
