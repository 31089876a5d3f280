// Sequential container of layers with a single flattened parameter view.
#pragma once

#include <memory>

#include "nn/layer.h"
#include "nn/param_pack.h"

namespace cmfl::nn {

class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer; validates that its in_dim matches the previous layer's
  /// out_dim (std::invalid_argument otherwise).
  void add(std::unique_ptr<Layer> layer);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  std::size_t in_dim() const;
  std::size_t out_dim() const;

  /// Direct layer access (benchmarks flip Conv2d reference mode; tests
  /// inspect layers).  Index must be < layer_count().
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Runs all layers; `out` receives the final activation.  Inter-layer
  /// activations live in buffers owned by this Sequential and are reused
  /// across steps (steady state allocates nothing).  Per the Layer lifetime
  /// contract, `in` and `out` must stay alive and unmodified until
  /// backward() completes.
  void forward(const tensor::Matrix& in, tensor::Matrix& out, bool training);

  /// Backpropagates d(loss)/d(output); parameter gradients accumulate in the
  /// layers.  Returns d(loss)/d(input) for callers that chain further (the
  /// LSTM language model backpropagates through its projection head).  The
  /// reference points at an internal ping-pong buffer, valid until the next
  /// forward()/backward().
  const tensor::Matrix& backward(const tensor::Matrix& grad_out);

  void init_params(util::Rng& rng);
  void zero_grads();

  /// Flattened views (rebuilt on each call; cheap — spans only).
  ParamPack params();
  ParamPack grads();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Training workspace: acts_[i] holds layer i's output (the last layer
  // writes the caller's `out`), gbuf_a_/gbuf_b_ ping-pong the gradient
  // through backward().  Sized on first use, reused every step.
  std::vector<tensor::Matrix> acts_;
  tensor::Matrix gbuf_a_;
  tensor::Matrix gbuf_b_;
};

}  // namespace cmfl::nn
