// Parameterless elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace cmfl::nn {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::size_t dim);

  std::size_t in_dim() const noexcept override { return dim_; }
  std::size_t out_dim() const noexcept override { return dim_; }
  std::string name() const override;

  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               bool training) override;
  void backward(const tensor::Matrix& grad_out,
                tensor::Matrix& grad_in) override;

 private:
  std::size_t dim_;
  const tensor::Matrix* cached_in_ = nullptr;  // forward input (see Layer)
};

/// Scalar helpers shared with the LSTM cell.
float sigmoid(float x) noexcept;

}  // namespace cmfl::nn
