// Flat-vector kernels.
//
// Client updates, global updates, and flattened model parameters are all
// plain std::vector<float>.  These free functions are the numeric substrate
// shared by the nn stack (SGD, losses) and the CMFL core (relevance and
// significance metrics operate on flat update vectors).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cmfl::tensor {

/// y += alpha * x.  Sizes must match (std::invalid_argument otherwise).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(std::span<float> x, float alpha);

/// Sets every element to `value`.
void fill(std::span<float> x, float value);

/// Euclidean (L2) norm, accumulated in double.
double norm2(std::span<const float> x);

/// Elementwise difference z = x - y.
void sub(std::span<const float> x, std::span<const float> y,
         std::span<float> z);

/// Elementwise sum z = x + y.
void add(std::span<const float> x, std::span<const float> y,
         std::span<float> z);

/// Three-way sign: -1, 0, +1.  The CMFL relevance measure (Eq. 9) counts
/// matching signs; treating exact zero as its own class is the convention
/// documented in DESIGN.md §6.
inline int sign(float v) noexcept { return (v > 0.0f) - (v < 0.0f); }

/// Number of positions where x and y have the same three-way sign.
/// Sizes must match.
std::size_t count_sign_matches(std::span<const float> x,
                               std::span<const float> y);

}  // namespace cmfl::tensor
