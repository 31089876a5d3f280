// 2-D convolution over flattened NCHW rows, stride 1, symmetric zero
// padding.  The paper's MNIST model is "a CNN with two 5×5 convolution
// layers, a fully connected layer, and a final output layer"; Conv2D is the
// workhorse for that architecture.
//
// The default forward lowers to im2col over a cached per-layer workspace and
// dispatches to the blocked GEMM kernels in tensor/kernels.h; the backward
// keeps the naive nonzero-skipping scatter (in training the incoming
// gradient has passed ReLU and MaxPool backward, so 50–90% of its entries
// are exact zeros — a dense col2im/GEMM formulation pays full MACs for them
// and measures slower end to end).  The original 7-deep naive loops are
// retained behind set_reference_impl(true) (the *_ref convention of
// tensor/kernels.h) for equivalence tests and the old-vs-new training
// benchmark.  Both paths are bit-identical: the forward GEMM preserves the
// naive per-output-element accumulation order (bias first, then taps with
// (ic, kh, kw) increasing) and the explicit zeros im2col writes for padding
// taps are ±0-safe no-ops; the backward shares the naive loop order
// outright, with the bias gradient hoisted into tensor::add_col_sums (whose
// extra zero-gradient terms are the same ±0 no-ops).
#pragma once

#include "nn/layer.h"

namespace cmfl::nn {

struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t out_channels = 1;
  std::size_t kernel = 5;
  std::size_t padding = 2;  // `same` for kernel 5
};

class Conv2d final : public Layer {
 public:
  explicit Conv2d(const Conv2dSpec& spec);

  std::size_t in_dim() const noexcept override;
  std::size_t out_dim() const noexcept override;
  std::string name() const override;

  std::size_t out_height() const noexcept { return out_h_; }
  std::size_t out_width() const noexcept { return out_w_; }

  /// Switches to the retained naive loops (per-step allocating, no GEMM).
  /// Used by equivalence tests and bench_train's pre-PR baseline.
  void set_reference_impl(bool ref) noexcept { ref_mode_ = ref; }

  void forward(const tensor::Matrix& in, tensor::Matrix& out,
               bool training) override;
  void backward(const tensor::Matrix& grad_out,
                tensor::Matrix& grad_in) override;

  void init_params(util::Rng& rng) override;
  void collect_params(std::vector<std::span<float>>& out) override;
  void collect_grads(std::vector<std::span<float>>& out) override;
  void zero_grads() override;

 private:
  float& weight(std::size_t oc, std::size_t ic, std::size_t kh,
                std::size_t kw) noexcept;

  void forward_ref(const tensor::Matrix& in, tensor::Matrix& out);
  void backward_ref(const tensor::Matrix& grad_out, tensor::Matrix& grad_in);

  /// Writes sample row `x` as a (K × P) column matrix into `col`
  /// (K = in_c·k·k patch taps, P = out_h·out_w output pixels); padding taps
  /// become explicit zeros.
  void im2col_row(std::span<const float> x, float* col) const;

  /// Sparsity-aware gW/gX accumulation for one sample: walks nonzero
  /// gradient entries in the naive (oc, oh, ow) order and scatters their
  /// weight/input taps, skipping the ~50–90% of entries the upstream
  /// ReLU/MaxPool backward zeroed.  `gx` must be pre-zeroed.
  void scatter_grads_row(std::span<const float> x, std::span<const float> gy,
                         std::span<float> gx);

  Conv2dSpec spec_;
  std::size_t out_h_;
  std::size_t out_w_;
  std::vector<float> w_;   // [out_c][in_c][k][k]
  std::vector<float> b_;   // [out_c]
  std::vector<float> gw_;
  std::vector<float> gb_;
  bool ref_mode_ = false;
  std::size_t cached_batch_ = 0;
  tensor::Matrix cached_in_;        // reference mode only (seed deep-copy)
  const tensor::Matrix* in_ptr_ = nullptr;  // hot path: caller-owned input
  // im2col workspace, sized on first use and reused across steps:
  tensor::Matrix col_;  // batch × (K·P): per-sample patch matrix
};

}  // namespace cmfl::nn
