// Equivalence tests for the kernel layer (tensor/kernels.h).
//
// GEMM: blocked/tiled kernels vs the naive seed references, within 1e-5
// relative tolerance, on random and adversarial shapes (1×N, N×1, sizes that
// are not multiples of the register/cache blocks), plus bit-identity between
// the serial and pool-sharded paths.
//
// SignPack: packed matching must be *exactly* equal to the scalar
// count_sign_matches — including ±0, denormals, exact zeros, NaN and ±inf —
// because the three-way sign() convention must be preserved bit-for-bit.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/vector_ops.h"
#include "util/rng.h"

namespace cmfl::tensor {
namespace {

// Force a multi-worker kernel pool before any test triggers its lazy
// creation, so matmul on large shapes actually exercises row sharding even
// on a single-core CI machine.  This file tests the *exact* tier — every
// bit-identity assertion below (sparse inputs, pool sharding, fused
// aggregation vs axpy) is a statement about the blocked reference kernels,
// so pin the tier; the fast tier has its own suite (test_tensor_simd.cpp).
const bool kForcePool = [] {
  kernels::set_max_threads(4);
  kernels::set_tier(kernels::Tier::kExact);
  return true;
}();

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f(-1.0f, 1.0f);
  return v;
}

void expect_all_near(std::span<const float> got, std::span<const float> want,
                     double rel_tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], rel_tol * scale) << "index " << i;
  }
}

struct GemmShape {
  std::size_t m, k, n;
};

// Adversarial shapes: degenerate rows/cols, primes, and sizes straddling the
// 4-row register tile and 128/1024 cache blocks.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 37, 1},   {1, 8, 129}, {129, 8, 1},  {3, 3, 3},
    {5, 7, 11},  {4, 128, 8},  {63, 5, 65}, {64, 64, 64}, {65, 129, 33},
    {17, 200, 130}, {130, 131, 7}, {2, 1025, 3},
};

TEST(GemmEquivalence, NNMatchesReferenceOnAdversarialShapes) {
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, 1 + s.m);
    const auto b = random_vec(s.k * s.n, 2 + s.n);
    std::vector<float> want(s.m * s.n), got(s.m * s.n);
    kernels::gemm_nn_ref(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    kernels::gemm_nn(a.data(), b.data(), got.data(), s.m, s.k, s.n, 0, s.m);
    expect_all_near(got, want, 1e-5);
  }
}

TEST(GemmEquivalence, TNMatchesReferenceOnAdversarialShapes) {
  for (const auto& s : kShapes) {
    // a is (k×m) for the transposed-left product.
    const auto a = random_vec(s.k * s.m, 3 + s.m);
    const auto b = random_vec(s.k * s.n, 4 + s.n);
    std::vector<float> want(s.m * s.n), got(s.m * s.n);
    kernels::gemm_tn_ref(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    kernels::gemm_tn(a.data(), b.data(), got.data(), s.m, s.k, s.n, 0, s.m);
    expect_all_near(got, want, 1e-5);
  }
}

TEST(GemmEquivalence, NTMatchesReferenceOnAdversarialShapes) {
  for (const auto& s : kShapes) {
    const auto a = random_vec(s.m * s.k, 5 + s.m);
    const auto b = random_vec(s.n * s.k, 6 + s.n);
    std::vector<float> want(s.m * s.n), got(s.m * s.n);
    kernels::gemm_nt_ref(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    kernels::gemm_nt(a.data(), b.data(), got.data(), s.m, s.k, s.n, 0, s.m);
    expect_all_near(got, want, 1e-5);
  }
}

TEST(GemmEquivalence, SparseInputStillMatches) {
  // The seed kernels skip zero multipliers; the blocked ones do not.  With
  // finite data the skipped terms contribute exact ±0, so results agree.
  const std::size_t m = 33, k = 70, n = 41;
  auto a = random_vec(m * k, 9);
  util::Rng rng(10);
  for (auto& v : a) {
    if (rng.uniform() < 0.5) v = 0.0f;
  }
  const auto b = random_vec(k * n, 11);
  std::vector<float> want(m * n), got(m * n);
  kernels::gemm_nn_ref(a.data(), b.data(), want.data(), m, k, n);
  kernels::gemm_nn(a.data(), b.data(), got.data(), m, k, n, 0, m);
  EXPECT_EQ(got, want);  // identical accumulation order -> identical bits
}

TEST(GemmDeterminism, PoolShardedMatmulBitIdenticalToSerialKernel) {
  // 256^3 exceeds kParallelMacThreshold, so matmul shards rows across the
  // forced 4-worker pool; the result must match the serial kernel bit for
  // bit (fixed row partition, k-order accumulation per element).
  const std::size_t n = 256;
  Matrix a(n, n, random_vec(n * n, 12));
  Matrix b(n, n, random_vec(n * n, 13));
  Matrix sharded(n, n);
  matmul(a, b, sharded);
  std::vector<float> serial(n * n);
  kernels::gemm_nn(a.flat().data(), b.flat().data(), serial.data(), n, n, n, 0,
                   n);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(sharded.flat()[i], serial[i]) << "index " << i;
  }
}

TEST(GemmDeterminism, RowRangesComposeExactly) {
  // Computing [0,m) in one call equals computing arbitrary disjoint row
  // slices — the invariant parallel_rows relies on.
  const std::size_t m = 37, k = 129, n = 65;
  const auto a = random_vec(m * k, 14);
  const auto b = random_vec(k * n, 15);
  std::vector<float> whole(m * n), pieces(m * n);
  kernels::gemm_nn(a.data(), b.data(), whole.data(), m, k, n, 0, m);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 0, 10);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 10, 11);
  kernels::gemm_nn(a.data(), b.data(), pieces.data(), m, k, n, 11, m);
  EXPECT_EQ(whole, pieces);
}

// --- SignPack ---

std::vector<float> sign_edge_cases() {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return {0.0f,  -0.0f, denorm, -denorm, 1.0f, -1.0f, nan,
          -nan,  inf,   -inf,   1e-38f,  -1e-38f, 0.0f, 3.5f};
}

TEST(SignPack, EdgeCaseClassesMatchScalarSign) {
  const auto v = sign_edge_cases();
  const SignPack p(v);
  ASSERT_EQ(p.size(), v.size());
  const auto nz = p.nonzero_words();
  const auto neg = p.negative_words();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool packed_nonzero = (nz[i / 64] >> (i % 64)) & 1;
    EXPECT_EQ(packed_nonzero, sign(v[i]) != 0) << "element " << i;
    if (packed_nonzero) {
      const bool packed_neg = (neg[i / 64] >> (i % 64)) & 1;
      EXPECT_EQ(packed_neg, sign(v[i]) < 0) << "element " << i;
    }
  }
}

TEST(SignPack, PackedMatchesExactlyEqualScalarOnEdgeCases) {
  // Every pairing of edge-case vectors, both pack-vs-pack and float-vs-pack.
  const auto base = sign_edge_cases();
  std::vector<std::vector<float>> variants = {base};
  variants.push_back(std::vector<float>(base.rbegin(), base.rend()));
  std::vector<float> negated = base;
  for (auto& x : negated) x = -x;
  variants.push_back(negated);
  std::vector<float> zeros(base.size(), 0.0f);
  zeros[3] = -0.0f;
  variants.push_back(zeros);
  for (const auto& x : variants) {
    for (const auto& y : variants) {
      const std::size_t scalar = count_sign_matches(x, y);
      EXPECT_EQ(count_sign_matches(SignPack(x), SignPack(y)), scalar);
      EXPECT_EQ(count_sign_matches(x, SignPack(y)), scalar);
    }
  }
}

TEST(SignPack, ExactlyEqualScalarOnRandomVectorsAcrossWordBoundaries) {
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 1000u, 4097u}) {
    util::Rng rng(n);
    std::vector<float> x(n), y(n);
    for (auto& v : x) {
      // Mix exact zeros in so the zero class is exercised at every size.
      v = rng.uniform() < 0.25 ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
    }
    for (auto& v : y) {
      v = rng.uniform() < 0.25 ? 0.0f : rng.uniform_f(-1.0f, 1.0f);
    }
    const std::size_t scalar = count_sign_matches(x, y);
    EXPECT_EQ(count_sign_matches(SignPack(x), SignPack(y)), scalar) << n;
    EXPECT_EQ(count_sign_matches(x, SignPack(y)), scalar) << n;
  }
}

TEST(SignPack, AllZeroAndAssignReuse) {
  SignPack p(std::vector<float>{0.0f, -0.0f, 0.0f});
  EXPECT_TRUE(p.all_zero());
  p.assign(std::vector<float>{0.0f, 1e-40f});  // denormal is sign class +
  EXPECT_FALSE(p.all_zero());
  EXPECT_EQ(p.size(), 2u);
  p.assign(std::vector<float>{});
  EXPECT_TRUE(p.all_zero());
  EXPECT_TRUE(p.empty());
}

TEST(SignPack, SizeMismatchThrows) {
  const SignPack a(std::vector<float>{1.0f, 2.0f});
  const SignPack b(std::vector<float>{1.0f});
  EXPECT_THROW(count_sign_matches(a, b), std::invalid_argument);
  EXPECT_THROW(count_sign_matches(std::vector<float>{1.0f}, a),
               std::invalid_argument);
}

// --- Fused aggregation ---

TEST(FusedAggregation, ScaledSumBitIdenticalToAxpyThenScale) {
  const std::size_t d = 4099, clients = 7;
  std::vector<std::vector<float>> updates;
  for (std::size_t k = 0; k < clients; ++k) {
    updates.push_back(random_vec(d, 20 + k));
  }
  std::vector<float> want(d, 0.0f);
  for (const auto& u : updates) axpy(1.0f, u, want);
  scale(want, 1.0f / static_cast<float>(clients));

  std::vector<std::span<const float>> views(updates.begin(), updates.end());
  std::vector<float> got(d);
  kernels::scaled_sum(views, 1.0f / static_cast<float>(clients), got);
  EXPECT_EQ(got, want);
}

TEST(FusedAggregation, WeightedSumBitIdenticalToPerClientAxpy) {
  const std::size_t d = 2050, clients = 5;
  std::vector<std::vector<float>> updates;
  std::vector<float> weights;
  for (std::size_t k = 0; k < clients; ++k) {
    updates.push_back(random_vec(d, 40 + k));
    weights.push_back(0.1f * static_cast<float>(k + 1));
  }
  std::vector<float> want(d, 0.0f);
  for (std::size_t k = 0; k < clients; ++k) {
    axpy(weights[k], updates[k], want);
  }
  std::vector<std::span<const float>> views(updates.begin(), updates.end());
  std::vector<float> got(d);
  kernels::weighted_sum_range(views, weights, got, 0, got.size());
  EXPECT_EQ(got, want);
}

TEST(FusedAggregation, SizeMismatchThrows) {
  std::vector<float> a(4), b(5), out(4);
  const std::vector<std::span<const float>> views = {a, b};
  EXPECT_THROW(kernels::scaled_sum(views, 1.0f, out), std::invalid_argument);
  const std::vector<float> w = {0.5f};
  const std::vector<std::span<const float>> ok = {a};
  std::vector<float> out5(5);
  EXPECT_THROW(kernels::weighted_sum_range(ok, w, out5, 0, out5.size()),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::tensor
