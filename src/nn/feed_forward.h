// FeedForward: a Sequential network + softmax cross-entropy head, with the
// flat-parameter API used by the federated layer.  Covers the paper's MNIST
// CNN (via Conv2d/MaxPool layers) and any MLP workload.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "nn/loss.h"
#include "nn/model.h"
#include "nn/sequential.h"

namespace cmfl::nn {

class FeedForward {
 public:
  /// Takes ownership of a fully assembled Sequential whose final layer emits
  /// `classes` logits.
  explicit FeedForward(Sequential net);

  std::size_t param_count();
  void get_params(std::span<float> out);
  void set_params(std::span<const float> in);
  void get_grads(std::span<float> out);

  void init_params(util::Rng& rng) { net_.init_params(rng); }

  std::size_t input_dim() const { return net_.in_dim(); }
  std::size_t num_classes() const { return net_.out_dim(); }

  /// One SGD step on a mini-batch: forward, softmax-CE backward, update.
  /// Returns the batch mean loss.
  double train_batch(const tensor::Matrix& x, std::span<const int> y,
                     float lr);

  /// Forward + loss/accuracy without touching parameters.
  EvalResult evaluate(const tensor::Matrix& x, std::span<const int> y);

  /// Computes gradients on (x, y) without applying an update — used by
  /// gradient-checking tests and by ablations that need raw gradients.
  double compute_grads(const tensor::Matrix& x, std::span<const int> y);

  /// Direct access to the underlying network (benchmarks flip Conv2d
  /// reference mode through this).
  Sequential& net() noexcept { return net_; }

 private:
  ParamPack& params_pack();
  ParamPack& grads_pack();

  Sequential net_;
  // Train-step workspace: logits/loss-gradient buffers plus parameter and
  // gradient packs built once (spans point into layer heap storage, which is
  // stable across FeedForward moves), so a steady-state step allocates
  // nothing.
  tensor::Matrix logits_;
  tensor::Matrix loss_grad_;
  ParamPack params_cache_;
  ParamPack grads_cache_;
  bool packs_built_ = false;
};

/// Builders for the paper's two image-model scales (see DESIGN.md §5 on the
/// scaled-down substitution).
struct CnnSpec {
  std::size_t image_size = 12;  // square grayscale input
  std::size_t conv1_filters = 8;
  std::size_t conv2_filters = 16;
  std::size_t kernel = 5;
  std::size_t fc_width = 64;
  std::size_t classes = 10;
};

/// "CNN with two 5×5 convolution layers, a fully connected layer, and a
/// final output layer" (paper §V-A) at configurable scale.
FeedForward make_digits_cnn(const CnnSpec& spec, util::Rng& rng);

/// Small MLP used by fast tests and the quickstart example.
FeedForward make_mlp(std::size_t in, std::vector<std::size_t> hidden,
                     std::size_t classes, util::Rng& rng);

}  // namespace cmfl::nn
