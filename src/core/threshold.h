// Hyper-parameter schedules.
//
// Theorem 1 requires time-decreasing learning rate η_t and relevance
// threshold v_t for convergence; the paper's evaluation uses
// η_t = η₀/√t and v_t = v₀/√t.  Schedule covers both hyper-parameters.
#pragma once

#include <cstddef>
#include <string>

namespace cmfl::core {

enum class ScheduleKind {
  kConstant,  // s(t) = s0
  kInvSqrt,   // s(t) = s0 / sqrt(t)       (the paper's choice)
  kInvLinear, // s(t) = s0 / t             (stronger decay, for ablations)
  kInvPow,    // s(t) = s0 / t^p           (generalized; Theorem 1 only
              //                            needs (1/T)·Σ s_t → 0, which any
              //                            p > 0 satisfies)
};

class Schedule {
 public:
  /// `base` is s0.  Throws std::invalid_argument if base is negative, or if
  /// kind is kInvPow and exponent is not positive.
  Schedule(double base, ScheduleKind kind, double exponent = 0.5);

  static Schedule constant(double base) {
    return Schedule(base, ScheduleKind::kConstant);
  }
  static Schedule inv_sqrt(double base) {
    return Schedule(base, ScheduleKind::kInvSqrt);
  }
  static Schedule inv_linear(double base) {
    return Schedule(base, ScheduleKind::kInvLinear);
  }
  /// Slowly decaying thresholds (small `exponent`) track a drifting
  /// relevance band over long runs.
  static Schedule inv_pow(double base, double exponent) {
    return Schedule(base, ScheduleKind::kInvPow, exponent);
  }

  /// Value at iteration t (1-based; t = 0 is clamped to 1).
  double at(std::size_t t) const noexcept;

  double base() const noexcept { return base_; }
  std::string describe() const;

 private:
  double base_;
  ScheduleKind kind_;
  double exponent_;
};

}  // namespace cmfl::core
