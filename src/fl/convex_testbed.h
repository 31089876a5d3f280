// Convex federated testbed for validating Theorem 1 empirically.
//
// The paper's convergence guarantee assumes a convex loss f(x) = (1/D)·Σ f_k
// and bounds the time-averaged regret
//     (1/T)·R[x̃] = (1/T)·Σ_t |f(x̃_t) − f(x*)|
// by O(Σ η_t)/T + O(1/η_T)/T + O(Σ v_t)/T, which vanishes for
// η_t = η0/√t and v_t = v0/√t.
//
// Quadratic per-client objectives make everything exact:
//     f_k(x) = ½‖x − c_k‖²,   f(x) = ½·mean_k ‖x − c_k‖²,
// so the global optimum x* = mean(c_k) and f(x*) are closed-form and the
// regret can be measured without approximation.  Client centers c_k are
// spread out (non-IID) with a configurable fraction of far-away outliers —
// the same population structure as the learning workloads.  Runs go through
// the shipped runtimes (FederatedSimulation over make_convex_workload, whose
// evaluator's loss is the exact f(x)), so Theorem 1 is checked on the
// program itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fl/client.h"
#include "fl/simulation.h"
#include "util/rng.h"

namespace cmfl::fl {

struct ConvexTestbedSpec {
  std::size_t clients = 50;
  std::size_t dim = 64;
  double center_spread = 1.0;     // stddev of client centers around 0
  double outlier_fraction = 0.2;  // far-away centers
  double outlier_spread = 8.0;
  double gradient_noise = 0.1;    // stochastic-gradient noise per step
  int local_steps = 5;            // SGD steps per client per round
  /// Initial point x_0 = start_offset · 1 (every coordinate).  The default
  /// 0 starts at the centers' mean — already near x*.  A nonzero offset
  /// starts the run far from the optimum, where honest clients share a
  /// dominant descent direction (the regime the adversary experiments
  /// need: sign-relevance then separates attackers from honest noise).
  double start_offset = 0.0;
  std::uint64_t seed = 42;
};

/// The quadratic testbed: client centers, the exact optimum and the exact
/// global loss.
class ConvexTestbed {
 public:
  explicit ConvexTestbed(const ConvexTestbedSpec& spec);

  /// Exact global optimum (mean of client centers).
  const std::vector<float>& optimum() const noexcept { return optimum_; }

  /// Exact global loss at x.
  double global_loss(std::span<const float> x) const;

  /// Exact global loss at the optimum.
  double optimum_loss() const noexcept { return optimum_loss_; }

  /// Per-client quadratic centers c_k.
  const std::vector<std::vector<float>>& centers() const noexcept {
    return centers_;
  }

 private:
  ConvexTestbedSpec spec_;
  std::vector<std::vector<float>> centers_;  // c_k per client
  std::vector<float> optimum_;
  double optimum_loss_ = 0.0;
};

/// FlClient over one quadratic objective f_k(x) = ½‖x − c_k‖² — lets the
/// simulation and the (fault-injected) cluster run against the exact convex
/// testbed, where the optimality gap is measurable in closed form.
/// train_local runs `epochs × local_steps` noisy gradient steps
/// (∇f_k(y) = y − c_k plus Gaussian noise); batch_size is ignored.
class ConvexClient final : public FlClient {
 public:
  ConvexClient(std::vector<float> center, int local_steps,
               double gradient_noise, util::Rng rng,
               float start_offset = 0.0f);

  std::size_t param_count() override { return params_.size(); }
  std::size_t local_samples() const override { return 1; }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override { return lifetime_steps_; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  std::vector<float> center_;
  std::vector<float> params_;  // starts at start_offset·1, the testbed's x_0
  int local_steps_;
  double gradient_noise_;
  util::Rng rng_;
  std::uint64_t lifetime_steps_ = 0;
};

/// Clients plus exact-loss evaluator over one ConvexTestbedSpec, in the
/// same shape the learning workloads use.  The evaluator reports
/// accuracy = 1 / (1 + |f(x) − f(x*)|), monotone in the optimality gap and
/// → 1 at x*, so target_accuracy thresholds work unchanged.
struct ConvexWorkload {
  std::vector<std::unique_ptr<FlClient>> clients;
  GlobalEvaluator evaluator;
  std::shared_ptr<ConvexTestbed> testbed;
};

ConvexWorkload make_convex_workload(const ConvexTestbedSpec& spec);

/// A *virtual* convex population: per-device quadratic centers are pure
/// hashed functions of (seed, device id) — nothing is stored per device —
/// so the same spec can describe 50 or 100,000 devices.  The factory has
/// the sched::ClientFactory shape (materialize device k on demand); the
/// evaluator is exact, computed once from the streamed center statistics
///     f(x) = ½‖x − c̄‖² + ½·mean‖c_k − c̄‖²,
/// so evaluating never touches per-device state.  bench/bench_sched and
/// examples/scale_sweep share this workload.
struct VirtualConvexSpec {
  std::uint64_t devices = 1000;
  std::size_t dim = 32;
  double center_spread = 1.0;
  double outlier_fraction = 0.2;
  double outlier_spread = 8.0;
  double gradient_noise = 0.1;
  int local_steps = 3;
  double start_offset = 2.0;  // x_0 far from x* so descent is measurable
  std::uint64_t seed = 42;
};

/// Device k's quadratic center — deterministic in (spec.seed, device).
std::vector<float> virtual_convex_center(const VirtualConvexSpec& spec,
                                         std::uint64_t device);

struct VirtualConvexWorkload {
  /// Materializes device k (compatible with sched::ClientFactory).
  std::function<std::unique_ptr<FlClient>(std::uint64_t)> factory;
  GlobalEvaluator evaluator;  // accuracy = 1/(1 + |f(x) − f(x*)|)
  std::vector<float> optimum;  // c̄, the exact minimizer
  double optimum_loss = 0.0;   // f(c̄) = ½·mean‖c_k − c̄‖²
};

/// Streams all `devices` centers once to fix c̄ and f(x*); O(devices·dim)
/// setup, O(dim) per evaluation, no per-device storage afterwards.
VirtualConvexWorkload make_virtual_convex(const VirtualConvexSpec& spec);

}  // namespace cmfl::fl
