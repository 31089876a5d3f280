// Global-update estimator: the feedback loop at the heart of CMFL.
//
// The true global update of iteration t is unknowable before aggregation, so
// CMFL estimates it with the global update of iteration t-1 (paper §IV-A;
// justified empirically by the small ΔUpdate in Fig. 3).  The estimator also
// supports an exponential-moving-average extension — a natural smoothing of
// the same idea, used by the ablation bench.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cmfl::core {

class GlobalUpdateEstimator {
 public:
  /// `dim` is the flat update length; `ema_decay` in [0,1):
  ///   0   -> pure previous-update estimate (the paper's design);
  ///   >0  -> estimate = decay*old + (1-decay)*new on each observation.
  explicit GlobalUpdateEstimator(std::size_t dim, double ema_decay = 0.0);

  std::size_t dim() const noexcept { return estimate_.size(); }

  /// Current estimate of the upcoming global update (all zeros before the
  /// first observation — the cold-start state filters must accept).
  std::span<const float> estimate() const noexcept { return estimate_; }

  /// Feeds the actual global update of the just-finished iteration.
  /// Throws std::invalid_argument on size mismatch.
  void observe(std::span<const float> global_update);

  bool has_observation() const noexcept { return observed_; }

  /// Restores a state previously captured as (estimate(), has_observation())
  /// — used by crash-consistent checkpoint/resume (fl/checkpoint.h).
  /// Throws std::invalid_argument on size mismatch.
  void restore(std::span<const float> estimate, bool observed);

 private:
  std::vector<float> estimate_;
  double ema_decay_;
  bool observed_ = false;
};

/// Normalized difference between two sequential global updates (Eq. 8):
///   ΔUpdate_t = ‖u_{t+1} - u_t‖ / ‖u_t‖.
/// Returns +inf if u_t is zero but u_{t+1} is not; 0 if both are zero.
double normalized_update_difference(std::span<const float> prev,
                                    std::span<const float> next);

}  // namespace cmfl::core
