// Single-layer LSTM over fixed-length sequences with full BPTT.
//
// Gate layout follows the classic formulation (Hochreiter & Schmidhuber):
//   i_t = σ(W_i x_t + U_i h_{t-1} + b_i)       input gate
//   f_t = σ(W_f x_t + U_f h_{t-1} + b_f)       forget gate
//   g_t = tanh(W_g x_t + U_g h_{t-1} + b_g)    candidate
//   o_t = σ(W_o x_t + U_o h_{t-1} + b_o)       output gate
//   c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ tanh(c_t)
// The four gates are stored stacked as rows [i; f; g; o] of a single (4H×E)
// input matrix W and (4H×H) recurrent matrix U.
//
// All per-step state (gate activations, cell states, BPTT scratch) lives in
// buffers owned by the Lstm and reused across steps, so a steady-state
// train step allocates nothing.  Inputs are cached by pointer: the `inputs`
// vector passed to forward() must stay alive and unmodified until the
// matching backward() completes (LstmLm keeps the embedded steps as
// members; tests keep them on the stack).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace cmfl::nn {

class Lstm {
 public:
  Lstm(std::size_t input_dim, std::size_t hidden_dim);

  std::size_t input_dim() const noexcept { return in_; }

  /// Processes a sequence of `steps` input batches (each batch × input_dim,
  /// all with the same batch size), starting from zero state.  Returns the
  /// final hidden state h_T (batch × hidden_dim) — a reference into the
  /// internal step cache, valid until the next forward().  Caches everything
  /// needed for backward().
  const tensor::Matrix& forward(const std::vector<tensor::Matrix>& inputs);

  /// All hidden states h_1..h_T from the last forward pass (for stacking a
  /// second LSTM layer on top).  Returns copies; the stacked-layer path is
  /// not allocation-free.
  std::vector<tensor::Matrix> hidden_states() const;

  /// BPTT given d(loss)/d(h_T).  Accumulates parameter gradients and returns
  /// d(loss)/d(x_t) for each timestep (same layout as `inputs`).  The
  /// reference points at an internal buffer, valid until the next backward.
  const std::vector<tensor::Matrix>& backward(
      const tensor::Matrix& grad_h_last);

  /// BPTT with an external gradient on every hidden state (grad_h[t] is
  /// d(loss)/d(h_{t+1})); the stacked-layer case.  Same return as backward().
  const std::vector<tensor::Matrix>& backward_steps(
      const std::vector<tensor::Matrix>& grad_h);

  void init_params(util::Rng& rng);
  void zero_grads();

  void collect_params(std::vector<std::span<float>>& out);
  void collect_grads(std::vector<std::span<float>>& out);

 private:
  struct StepCache {
    const tensor::Matrix* x = nullptr;  // forward input (caller-owned)
    tensor::Matrix i, f, g, o;  // post-nonlinearity gate activations
    tensor::Matrix c;           // new cell state
    tensor::Matrix tanh_c;      // tanh(c)
    tensor::Matrix h;           // new hidden state
  };

  const tensor::Matrix& h_prev(std::size_t t) const {
    return t == 0 ? h0_ : cache_[t - 1].h;
  }
  const tensor::Matrix& c_prev(std::size_t t) const {
    return t == 0 ? c0_ : cache_[t - 1].c;
  }

  /// Shared BPTT loop; grad_h[t] == nullptr means a zero gradient for that
  /// step (skipping the add of an all-+0 matrix is a bitwise no-op: the dh
  /// accumulator starts at +0 and additions can never produce −0).
  const std::vector<tensor::Matrix>& run_bptt(
      const tensor::Matrix* const* grad_h);

  std::size_t in_;
  std::size_t hidden_;
  tensor::Matrix w_;  // 4H × in   (rows: [i; f; g; o])
  tensor::Matrix u_;  // 4H × H
  std::vector<float> b_;  // 4H
  tensor::Matrix gw_;
  tensor::Matrix gu_;
  std::vector<float> gb_;
  // Step caches + workspaces, sized on first use and reused across steps:
  std::vector<StepCache> cache_;
  tensor::Matrix h0_, c0_;    // zero initial state
  tensor::Matrix pre_, rec_;  // forward gate pre-activation scratch
  tensor::Matrix dh_, dc_, dpre_;  // BPTT carry + gate-gradient scratch
  tensor::Matrix gwb_, gub_;       // per-step parameter-gradient scratch
  std::vector<tensor::Matrix> grad_inputs_;
  std::vector<const tensor::Matrix*> ghp_;  // per-step grad pointers
};

}  // namespace cmfl::nn
