// Accuracy-gated equivalence tests for the AVX2/FMA fast tier
// (tensor/kernels_simd.h, DESIGN.md §13).
//
// The fast tier is not bit-identical to the exact tier — it fuses
// multiply-adds and, for dot-product-shaped kernels, reduces in 8 partial
// lanes.  Both the exact result and the fast result are instances of
// "sum the k products in *some* order, each op correctly rounded", so each
// is within γ_k·Σ|aᵢ||bᵢ| of the true real-arithmetic value, where
// γ_k = k·ε/(1−k·ε) and ε = 2⁻²⁴ (see Higham, Accuracy and Stability of
// Numerical Algorithms, §3.1).  The triangle inequality then bounds the
// tier gap per output element:
//
//     |fast − exact| ≤ 2·γ_k·Σ|aᵢ||bᵢ|
//
// These tests assert that bound elementwise on every fast-tier kernel, on
// adversarial sizes (1, 3, 17, 63, 65, and non-multiple-of-8 column counts
// that stress the vector tails).  Kernels whose fast path keeps the exact
// per-element operation sequence (rowmajor add_col_sums, scaled_sum,
// SignPack) are asserted *bit-identical* instead.  A final suite pins the
// determinism contract: a forced tier plus a seed is bit-identical across
// runs and across thread counts.
//
// Everything here SKIPs (not passes) when the host lacks AVX2+FMA.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/vector_ops.h"
#include "util/rng.h"

namespace cmfl::tensor {
namespace {

using kernels::Tier;

/// RAII tier pin; restores the previous setting on failure/skip paths too.
struct TierGuard {
  Tier prev;
  explicit TierGuard(Tier t) : prev(kernels::tier()) { kernels::set_tier(t); }
  ~TierGuard() { kernels::set_tier(prev); }
};

#define SKIP_WITHOUT_FAST_TIER()                                   \
  if (!kernels::fast_tier_available()) {                           \
    GTEST_SKIP() << "AVX2+FMA not available; fast tier untested";  \
  }

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f(-1.0f, 1.0f);
  return v;
}

/// γ_k = k·ε/(1−k·ε), the standard summation error constant for float.
double gamma_k(std::size_t k) {
  const double eps = std::ldexp(1.0, -24);
  const double ke = static_cast<double>(k) * eps;
  return ke / (1.0 - ke);
}

/// Asserts |fast − exact| ≤ 2·γ_k·abs_mag elementwise.  abs_mag[i] must be
/// Σ|terms| feeding output element i (computed in double by the caller).
void expect_ulp_bounded(std::span<const float> fast,
                        std::span<const float> exact,
                        std::span<const double> abs_mag, std::size_t k,
                        const char* what) {
  ASSERT_EQ(fast.size(), exact.size());
  ASSERT_EQ(fast.size(), abs_mag.size());
  // +8 covers the lane reduction and the final rounding of hsum paths.
  const double g = 2.0 * gamma_k(k + 8);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const double diff =
        std::fabs(static_cast<double>(fast[i]) - static_cast<double>(exact[i]));
    ASSERT_LE(diff, g * abs_mag[i] + 1e-30)
        << what << " element " << i << ": fast=" << fast[i]
        << " exact=" << exact[i] << " bound=" << g * abs_mag[i];
  }
}

struct GemmShape {
  std::size_t m, k, n;
};

// The ISSUE-mandated odd/tail sizes: 1, 3, 17, 63, 65, and column counts
// that are not multiples of 8 (the ymm lane width) nor of the 16-wide
// register tile.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 3, 17},   {3, 17, 63},  {17, 65, 3},  {63, 63, 63},
    {65, 64, 65}, {4, 256, 16}, {5, 100, 33}, {33, 17, 130}, {2, 1025, 7},
};

TEST(SimdGemm, NNWithinUlpBoundOfExactTier) {
  SKIP_WITHOUT_FAST_TIER();
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, 100 + s.m);
    const auto b = random_vec(s.k * s.n, 200 + s.n);
    std::vector<float> exact(s.m * s.n), fast(s.m * s.n);
    {
      TierGuard g(Tier::kExact);
      kernels::gemm_nn(a.data(), b.data(), exact.data(), s.m, s.k, s.n, 0,
                       s.m);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::gemm_nn(a.data(), b.data(), fast.data(), s.m, s.k, s.n, 0, s.m);
    }
    std::vector<double> mag(s.m * s.n, 0.0);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t kk = 0; kk < s.k; ++kk) {
        const double av = std::fabs(static_cast<double>(a[i * s.k + kk]));
        for (std::size_t j = 0; j < s.n; ++j) {
          mag[i * s.n + j] +=
              av * std::fabs(static_cast<double>(b[kk * s.n + j]));
        }
      }
    }
    expect_ulp_bounded(fast, exact, mag, s.k, "gemm_nn");
  }
}

TEST(SimdGemm, NNAccPreloadedCWithinUlpBound) {
  SKIP_WITHOUT_FAST_TIER();
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, 300 + s.m);
    const auto b = random_vec(s.k * s.n, 400 + s.n);
    const auto c0 = random_vec(s.m * s.n, 500 + s.m + s.n);
    std::vector<float> exact = c0, fast = c0;
    {
      TierGuard g(Tier::kExact);
      kernels::gemm_nn_acc(a.data(), b.data(), exact.data(), s.m, s.k, s.n, 0,
                           s.m);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::gemm_nn_acc(a.data(), b.data(), fast.data(), s.m, s.k, s.n, 0,
                           s.m);
    }
    std::vector<double> mag(s.m * s.n);
    for (std::size_t i = 0; i < s.m * s.n; ++i) {
      mag[i] = std::fabs(static_cast<double>(c0[i]));
    }
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t kk = 0; kk < s.k; ++kk) {
        const double av = std::fabs(static_cast<double>(a[i * s.k + kk]));
        for (std::size_t j = 0; j < s.n; ++j) {
          mag[i * s.n + j] +=
              av * std::fabs(static_cast<double>(b[kk * s.n + j]));
        }
      }
    }
    expect_ulp_bounded(fast, exact, mag, s.k + 1, "gemm_nn_acc");
  }
}

TEST(SimdGemm, TNWithinUlpBound) {
  SKIP_WITHOUT_FAST_TIER();
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.k * s.m, 600 + s.m);  // (k×m) transposed-left
    const auto b = random_vec(s.k * s.n, 700 + s.n);
    std::vector<float> exact(s.m * s.n), fast(s.m * s.n);
    {
      TierGuard g(Tier::kExact);
      kernels::gemm_tn(a.data(), b.data(), exact.data(), s.m, s.k, s.n, 0,
                       s.m);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::gemm_tn(a.data(), b.data(), fast.data(), s.m, s.k, s.n, 0, s.m);
    }
    std::vector<double> mag(s.m * s.n, 0.0);
    for (std::size_t kk = 0; kk < s.k; ++kk) {
      for (std::size_t i = 0; i < s.m; ++i) {
        const double av = std::fabs(static_cast<double>(a[kk * s.m + i]));
        for (std::size_t j = 0; j < s.n; ++j) {
          mag[i * s.n + j] +=
              av * std::fabs(static_cast<double>(b[kk * s.n + j]));
        }
      }
    }
    expect_ulp_bounded(fast, exact, mag, s.k, "gemm_tn");
  }
}

TEST(SimdGemm, NTWithinUlpBound) {
  SKIP_WITHOUT_FAST_TIER();
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, 800 + s.m);
    const auto b = random_vec(s.n * s.k, 900 + s.n);
    std::vector<float> exact(s.m * s.n), fast(s.m * s.n);
    {
      TierGuard g(Tier::kExact);
      kernels::gemm_nt(a.data(), b.data(), exact.data(), s.m, s.k, s.n, 0,
                       s.m);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::gemm_nt(a.data(), b.data(), fast.data(), s.m, s.k, s.n, 0, s.m);
    }
    std::vector<double> mag(s.m * s.n, 0.0);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < s.k; ++kk) {
          acc += std::fabs(static_cast<double>(a[i * s.k + kk])) *
                 std::fabs(static_cast<double>(b[j * s.k + kk]));
        }
        mag[i * s.n + j] = acc;
      }
    }
    expect_ulp_bounded(fast, exact, mag, s.k, "gemm_nt");
  }
}

// --- add_col_sums -----------------------------------------------------------

TEST(SimdColSums, RowMajorFormBitIdenticalToExact) {
  // col_stride == 1: each output column is an independent vector lane and
  // the fast path adds rows in the same order — bit-identical by design.
  SKIP_WITHOUT_FAST_TIER();
  for (std::size_t rows : {1u, 3u, 17u, 64u}) {
    for (std::size_t cols : {1u, 3u, 17u, 63u, 65u, 130u}) {
      const auto m = random_vec(rows * cols, rows * 131 + cols);
      std::vector<float> exact(cols, 0.5f), fast(cols, 0.5f);
      {
        TierGuard g(Tier::kExact);
        kernels::add_col_sums(m.data(), rows, cols, cols, 1, exact);
      }
      {
        TierGuard g(Tier::kFast);
        kernels::add_col_sums(m.data(), rows, cols, cols, 1, fast);
      }
      ASSERT_EQ(fast, exact) << rows << "x" << cols;
    }
  }
}

TEST(SimdColSums, StridedColwiseFormWithinUlpBound) {
  // row_stride == 1 (the im2col gradient view): the fast path reduces each
  // column in 8 partial lanes, so it is ULP-bounded, not bit-identical.
  SKIP_WITHOUT_FAST_TIER();
  for (std::size_t rows : {1u, 3u, 17u, 63u, 65u, 144u}) {
    for (std::size_t cols : {1u, 3u, 8u}) {
      const auto m = random_vec(rows * cols, rows * 37 + cols);
      std::vector<float> exact(cols, -0.25f), fast(cols, -0.25f);
      {
        TierGuard g(Tier::kExact);
        kernels::add_col_sums(m.data(), rows, cols, 1, rows, exact);
      }
      {
        TierGuard g(Tier::kFast);
        kernels::add_col_sums(m.data(), rows, cols, 1, rows, fast);
      }
      std::vector<double> mag(cols, 0.25);
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 0; i < rows; ++i) {
          mag[j] += std::fabs(static_cast<double>(m[j * rows + i]));
        }
      }
      expect_ulp_bounded(fast, exact, mag, rows + 1, "add_col_sums colwise");
    }
  }
}

// --- fused aggregation ------------------------------------------------------

TEST(SimdAggregation, ScaledSumBitIdenticalToExact) {
  // Lane-independent, same k-increasing order, same final multiply: the
  // fast path must be bit-identical (the server aggregate feeds the golden
  // digests, so this is load-bearing for reproducibility).
  SKIP_WITHOUT_FAST_TIER();
  for (std::size_t d : {1u, 3u, 17u, 63u, 65u, 1000u, 4099u}) {
    std::vector<std::vector<float>> updates;
    for (std::size_t c = 0; c < 5; ++c) updates.push_back(random_vec(d, d + c));
    std::vector<std::span<const float>> views(updates.begin(), updates.end());
    std::vector<float> exact(d), fast(d);
    {
      TierGuard g(Tier::kExact);
      kernels::scaled_sum(views, 0.2f, exact);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::scaled_sum(views, 0.2f, fast);
    }
    ASSERT_EQ(fast, exact) << "d=" << d;
  }
}

TEST(SimdAggregation, WeightedSumWithinUlpBound) {
  // FMA contraction only (same order), so the γ bound applies with k equal
  // to the client count.
  SKIP_WITHOUT_FAST_TIER();
  for (std::size_t d : {1u, 3u, 17u, 63u, 65u, 1000u}) {
    const std::size_t clients = 7;
    std::vector<std::vector<float>> updates;
    std::vector<float> w;
    for (std::size_t c = 0; c < clients; ++c) {
      updates.push_back(random_vec(d, 3 * d + c));
      w.push_back(0.05f * static_cast<float>(c + 1));
    }
    std::vector<std::span<const float>> views(updates.begin(), updates.end());
    std::vector<float> exact(d), fast(d);
    {
      TierGuard g(Tier::kExact);
      kernels::weighted_sum_range(views, w, exact, 0, d);
    }
    {
      TierGuard g(Tier::kFast);
      kernels::weighted_sum_range(views, w, fast, 0, d);
    }
    std::vector<double> mag(d, 0.0);
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t i = 0; i < d; ++i) {
        mag[i] += std::fabs(static_cast<double>(w[c])) *
                  std::fabs(static_cast<double>(updates[c][i]));
      }
    }
    expect_ulp_bounded(fast, exact, mag, clients, "weighted_sum");
  }
}

// --- SignPack ---------------------------------------------------------------

std::vector<float> sign_edge_cases() {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return {0.0f, -0.0f, denorm, -denorm, 1.0f,    -1.0f,   nan,
          -nan, inf,   -inf,   1e-38f,  -1e-38f, 0.0f,    3.5f};
}

TEST(SimdSignPack, EdgeCasesPackBitIdenticalToExactTier) {
  // SIMD packing is pure IEEE-754 bit classification — it must reproduce
  // the scalar three-way sign() word-for-word, including ±0, denormals,
  // NaN (both signs) and ±inf.
  SKIP_WITHOUT_FAST_TIER();
  auto edge = sign_edge_cases();
  // Tile the edge cases across word boundaries so full SIMD words (64
  // elements) contain every class, not just the scalar tail.
  std::vector<float> v;
  for (int rep = 0; rep < 13; ++rep) {
    v.insert(v.end(), edge.begin(), edge.end());
  }
  SignPack exact_pack, fast_pack;
  {
    TierGuard g(Tier::kExact);
    exact_pack.assign(v);
  }
  {
    TierGuard g(Tier::kFast);
    fast_pack.assign(v);
  }
  ASSERT_EQ(exact_pack.size(), fast_pack.size());
  const auto en = exact_pack.nonzero_words(), fn = fast_pack.nonzero_words();
  const auto eg = exact_pack.negative_words(), fg = fast_pack.negative_words();
  for (std::size_t w = 0; w < en.size(); ++w) {
    ASSERT_EQ(fn[w], en[w]) << "nonzero word " << w;
    ASSERT_EQ(fg[w], eg[w]) << "negative word " << w;
  }
}

TEST(SimdSignPack, MatchCountsEqualScalarAcrossSizes) {
  SKIP_WITHOUT_FAST_TIER();
  TierGuard g(Tier::kFast);
  for (std::size_t n : {1u, 3u, 17u, 63u, 64u, 65u, 127u, 1000u, 4097u}) {
    util::Rng rng(n * 7 + 1);
    std::vector<float> x(n), y(n);
    for (auto& v : x) {
      v = rng.uniform() < 0.25 ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
    }
    for (auto& v : y) {
      v = rng.uniform() < 0.25 ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
    }
    const std::size_t scalar = count_sign_matches(x, y);  // never dispatches
    EXPECT_EQ(count_sign_matches(SignPack(x), SignPack(y)), scalar) << n;
    EXPECT_EQ(count_sign_matches(x, SignPack(y)), scalar) << n;
  }
}

// --- determinism contract ---------------------------------------------------

TEST(SimdDeterminism, ForcedFastTierBitIdenticalAcrossRuns) {
  SKIP_WITHOUT_FAST_TIER();
  TierGuard g(Tier::kFast);
  const std::size_t n = 96;
  const auto a = random_vec(n * n, 1), b = random_vec(n * n, 2);
  std::vector<float> r1(n * n), r2(n * n);
  kernels::gemm_nn(a.data(), b.data(), r1.data(), n, n, n, 0, n);
  kernels::gemm_nn(a.data(), b.data(), r2.data(), n, n, n, 0, n);
  EXPECT_EQ(r1, r2);
}

TEST(SimdDeterminism, FastTierRowRangesComposeExactly) {
  // The invariant the thread-parallel conv/matmul paths rely on, in the
  // fast tier: per-element accumulation order never depends on [i0, i1).
  SKIP_WITHOUT_FAST_TIER();
  TierGuard g(Tier::kFast);
  const std::size_t m = 37, k = 129, n = 65;
  const auto a = random_vec(m * k, 3), b = random_vec(k * n, 4);
  std::vector<float> whole(m * n), pieces(m * n);
  kernels::gemm_nn(a.data(), b.data(), whole.data(), m, k, n, 0, m);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 0, 10);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 10, 11);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 11, m);
  EXPECT_EQ(whole, pieces);
}

TEST(SimdDeterminism, FastTierThreadCountInvariant) {
  // Same forced tier + seed ⇒ bit-identical results with 1 worker and with
  // 4 workers (matmul shards rows across the pool above the MAC threshold).
  SKIP_WITHOUT_FAST_TIER();
  TierGuard g(Tier::kFast);
  const std::size_t n = 256;  // 256³ MACs > kParallelMacThreshold
  Matrix a(n, n, random_vec(n * n, 5));
  Matrix b(n, n, random_vec(n * n, 6));
  const std::size_t prev = kernels::max_threads();
  Matrix serial(n, n), sharded(n, n);
  kernels::set_max_threads(1);
  matmul(a, b, serial);
  kernels::set_max_threads(4);
  matmul(a, b, sharded);
  kernels::set_max_threads(prev);
  for (std::size_t i = 0; i < serial.flat().size(); ++i) {
    ASSERT_EQ(serial.flat()[i], sharded.flat()[i]) << "index " << i;
  }
}

TEST(SimdDeterminism, ExactTierThreadCountInvariantStillHolds) {
  TierGuard g(Tier::kExact);
  const std::size_t n = 256;
  Matrix a(n, n, random_vec(n * n, 7));
  Matrix b(n, n, random_vec(n * n, 8));
  const std::size_t prev = kernels::max_threads();
  Matrix serial(n, n), sharded(n, n);
  kernels::set_max_threads(1);
  matmul(a, b, serial);
  kernels::set_max_threads(4);
  matmul(a, b, sharded);
  kernels::set_max_threads(prev);
  for (std::size_t i = 0; i < serial.flat().size(); ++i) {
    ASSERT_EQ(serial.flat()[i], sharded.flat()[i]) << "index " << i;
  }
}

TEST(SimdDispatch, TierIntrospection) {
  // active_tier() never reports kAuto, and forcing kFast on a machine
  // without the fast tier resolves to kExact rather than crashing.
  const Tier prev = kernels::tier();
  kernels::set_tier(Tier::kAuto);
  EXPECT_NE(kernels::active_tier(), Tier::kAuto);
  kernels::set_tier(Tier::kFast);
  if (kernels::fast_tier_available()) {
    EXPECT_EQ(kernels::active_tier(), Tier::kFast);
    EXPECT_STREQ(kernels::simd_level(), "avx2-fma");
  } else {
    EXPECT_EQ(kernels::active_tier(), Tier::kExact);
    EXPECT_STREQ(kernels::simd_level(), "scalar");
  }
  kernels::set_tier(Tier::kExact);
  EXPECT_EQ(kernels::active_tier(), Tier::kExact);
  kernels::set_tier(prev);
}

}  // namespace
}  // namespace cmfl::tensor
