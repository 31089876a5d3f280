// Gaia's magnitude-based significance measure (Hsieh et al., NSDI'17),
// reimplemented as the paper's baseline.
//
// Gaia deems an update significant when ‖Update/Model‖ exceeds a threshold.
// GaiaFilter reads that expression as ‖u‖ / ‖x‖, the ratio of Euclidean
// norms that the paper plots in Fig. 2a as a single per-client scalar.
#pragma once

#include <span>

namespace cmfl::core {

/// ‖u‖ / ‖x‖.  Returns +inf if the model vector is exactly zero but the
/// update is not (any change to a zero model is maximally significant);
/// returns 0 if both are zero.  Throws std::invalid_argument on size
/// mismatch or empty vectors.
double norm_ratio_significance(std::span<const float> update,
                               std::span<const float> model);

}  // namespace cmfl::core
