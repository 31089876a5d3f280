// Internal SIMD backends for the fast kernel tier (kernels.h Tier::kFast).
//
// Everything here is an implementation detail of kernels.cpp: the public
// kernel entry points dispatch to these AVX2/FMA routines when the fast tier
// is active, and fall back to the bit-exact blocked kernels otherwise.  The
// routines are compiled with per-function target attributes
// (`__attribute__((target("avx2,fma")))`), so the translation unit builds
// with the portable baseline flags and the vector code paths are only ever
// *executed* after cpu_has_avx2_fma() confirms hardware support at runtime.
// On non-x86 targets (or non-GCC/Clang toolchains) CMFL_SIMD_X86 is 0 and
// none of these symbols exist; kernels.cpp then resolves every dispatch to
// the exact tier.
//
// Accuracy contract (DESIGN.md §13): the GEMM/aggregation routines keep the
// exact tier's per-element k-increasing accumulation order wherever SIMD
// lanes map to *independent* output elements (gemm_nn/gemm_nn_acc/gemm_tn,
// add_col_sums row-major, scaled_sum, weighted_sum) — the only difference is
// fused multiply-add contraction (one rounding per tap instead of two).
// Routines that reduce *within* a vector register (gemm_nt, the strided
// add_col_sums) additionally reorder the sum into 8 partial lanes.
// Both effects are covered by the standard forward-error bound
// |fast − exact| ≤ 2·γ_k·Σ_j |a_ij|·|b_jk| with γ_k = k·ε/(1−k·ε), which the
// equivalence tests in tests/test_tensor_simd.cpp enforce.
//
// Determinism contract: every routine's per-element operation sequence
// depends only on (k, n) — never on the row range [i0, i1) — so disjoint row
// ranges compose bitwise and pool-sharded results are identical for any
// thread count, exactly like the exact tier.  The SignPack routines perform
// no float arithmetic at all (pure IEEE-754 bit classification) and are
// bit-for-bit equal to the scalar packing on every input including ±0,
// denormals, NaN and ±inf.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace cmfl::tensor::simd {

#if CMFL_SIMD_X86

/// Runtime CPU check for the fast tier (AVX2 + FMA3).
bool cpu_has_avx2_fma() noexcept;

// --- GEMM (row-major, fully packed; callers zero-fill for the non-acc
// forms and handle shape validation) ---

/// c[m×n] += a[m×k]·b[k×n], rows [i0, i1).  4×16 register tile, k-increasing
/// per element, FMA-contracted.
void gemm_nn_acc_avx2(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1);

/// c[m×n] += a[k×m]ᵀ·b[k×n], rows [i0, i1) of c.
void gemm_tn_acc_avx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n, std::size_t i0,
                      std::size_t i1);

/// c[m×n] = a[m×k]·b[n×k]ᵀ, rows [i0, i1).  8-lane float FMA accumulators
/// per dot product (reduction reordered vs the double-accumulating exact
/// kernel; tolerance-gated).
void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t n, std::size_t i0, std::size_t i1);

// --- Column sums (bias gradients) ---

/// acc[c] += Σ_r m[r·row_stride + c], contiguous columns.  Lanes map to
/// independent accumulators, so this is bit-identical to the scalar loop.
void add_col_sums_rowmajor_avx2(const float* m, std::size_t rows,
                                std::size_t cols, std::size_t row_stride,
                                float* acc);

/// acc[c] += Σ_r m[c·col_stride + r], contiguous rows (row_stride == 1 in
/// the kernels.h convention).  8 partial lanes per column, then a horizontal
/// reduce — reordered, tolerance-gated.
void add_col_sums_colwise_avx2(const float* m, std::size_t rows,
                               std::size_t cols, std::size_t col_stride,
                               float* acc);

// --- Fused server aggregation ---

/// out[i] = scale·Σ_k xs[k][i] (lane-independent adds + one multiply:
/// bit-identical to the exact tier).
void scaled_sum_avx2(const float* const* xs, std::size_t count, float scale,
                     float* out, std::size_t d);

/// out[i] = Σ_k w[k]·xs[k][i] (FMA-contracted, k-increasing per element).
void weighted_sum_avx2(const float* const* xs, const float* w,
                       std::size_t count, float* out, std::size_t d);

// --- SignPack (pure bit classification; exactly equal to scalar) ---

/// Packs `words` full 64-lane chunks of v into (negative, nonzero) words.
/// The caller packs any 0<lanes<64 tail word with the scalar path.
void signpack_words_avx2(const float* v, std::size_t words, std::uint64_t* neg,
                         std::uint64_t* nz);

/// Mixed-form match over `words` full 64-lane chunks of x against a cached
/// pack of y; returns the popcount of agreeing sign classes.  The caller
/// handles the tail word.
std::size_t count_matches_words_avx2(const float* x, const std::uint64_t* negy,
                                     const std::uint64_t* nzy,
                                     std::size_t words);

/// Pack-vs-pack match over `words` whole words (hardware popcount).
std::size_t count_matches_packed_popcnt(const std::uint64_t* negx,
                                        const std::uint64_t* nzx,
                                        const std::uint64_t* negy,
                                        const std::uint64_t* nzy,
                                        std::size_t words);

#endif  // CMFL_SIMD_X86

}  // namespace cmfl::tensor::simd
