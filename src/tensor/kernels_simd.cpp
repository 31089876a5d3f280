// AVX2/FMA backends for the fast kernel tier.  See kernels_simd.h for the
// accuracy and determinism contracts and kernels.cpp for the dispatch.
//
// Every routine is compiled via a per-function target attribute, so this
// file builds with the portable baseline flags of the rest of cmfl_tensor;
// nothing here may run before kernels.cpp has checked cpu_has_avx2_fma().
#include "tensor/kernels_simd.h"

#if CMFL_SIMD_X86

#include <immintrin.h>

namespace cmfl::tensor::simd {

bool cpu_has_avx2_fma() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

namespace {

// k-block: the active A/B panel strip stays cache-resident while a register
// tile accumulates a full block of taps without touching c memory.
constexpr std::size_t kKC = 256;

__attribute__((target("avx2"), always_inline)) inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Shared 4-row j-strip accumulator: c[r][j0..j0+15] += Σ_kk a_r(kk)·b[kk][j].
// `a_at(r, kk)` abstracts the A layout difference between NN (row-major) and
// TN (column-major) so both share the register tile.  Eight ymm accumulators
// live across the whole k-block; per element the taps land k-increasing with
// one FMA rounding each.
#define CMFL_DEFINE_GEMM_ACC_TILE(NAME, A_AT)                                  \
  __attribute__((target("avx2,fma"))) void NAME(                               \
      const float* a, const float* b, float* c, std::size_t m, std::size_t k, \
      std::size_t n, std::size_t i0, std::size_t i1) {                         \
    (void)m;                                                                   \
    for (std::size_t kc = 0; kc < k; kc += kKC) {                              \
      const std::size_t k1 = kc + (k - kc < kKC ? k - kc : kKC);               \
      std::size_t i = i0;                                                      \
      for (; i + 4 <= i1; i += 4) {                                            \
        float* c0 = c + (i + 0) * n;                                           \
        float* c1 = c + (i + 1) * n;                                           \
        float* c2 = c + (i + 2) * n;                                           \
        float* c3 = c + (i + 3) * n;                                           \
        std::size_t j = 0;                                                     \
        for (; j + 16 <= n; j += 16) {                                         \
          __m256 acc00 = _mm256_loadu_ps(c0 + j);                              \
          __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);                          \
          __m256 acc10 = _mm256_loadu_ps(c1 + j);                              \
          __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);                          \
          __m256 acc20 = _mm256_loadu_ps(c2 + j);                              \
          __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);                          \
          __m256 acc30 = _mm256_loadu_ps(c3 + j);                              \
          __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);                          \
          for (std::size_t kk = kc; kk < k1; ++kk) {                           \
            const float* br = b + kk * n + j;                                  \
            const __m256 b0 = _mm256_loadu_ps(br);                             \
            const __m256 b1 = _mm256_loadu_ps(br + 8);                         \
            __m256 av;                                                         \
            av = _mm256_set1_ps(A_AT(0, kk));                                  \
            acc00 = _mm256_fmadd_ps(av, b0, acc00);                            \
            acc01 = _mm256_fmadd_ps(av, b1, acc01);                            \
            av = _mm256_set1_ps(A_AT(1, kk));                                  \
            acc10 = _mm256_fmadd_ps(av, b0, acc10);                            \
            acc11 = _mm256_fmadd_ps(av, b1, acc11);                            \
            av = _mm256_set1_ps(A_AT(2, kk));                                  \
            acc20 = _mm256_fmadd_ps(av, b0, acc20);                            \
            acc21 = _mm256_fmadd_ps(av, b1, acc21);                            \
            av = _mm256_set1_ps(A_AT(3, kk));                                  \
            acc30 = _mm256_fmadd_ps(av, b0, acc30);                            \
            acc31 = _mm256_fmadd_ps(av, b1, acc31);                            \
          }                                                                    \
          _mm256_storeu_ps(c0 + j, acc00);                                     \
          _mm256_storeu_ps(c0 + j + 8, acc01);                                 \
          _mm256_storeu_ps(c1 + j, acc10);                                     \
          _mm256_storeu_ps(c1 + j + 8, acc11);                                 \
          _mm256_storeu_ps(c2 + j, acc20);                                     \
          _mm256_storeu_ps(c2 + j + 8, acc21);                                 \
          _mm256_storeu_ps(c3 + j, acc30);                                     \
          _mm256_storeu_ps(c3 + j + 8, acc31);                                 \
        }                                                                      \
        for (; j + 8 <= n; j += 8) {                                           \
          __m256 q0 = _mm256_loadu_ps(c0 + j);                                 \
          __m256 q1 = _mm256_loadu_ps(c1 + j);                                 \
          __m256 q2 = _mm256_loadu_ps(c2 + j);                                 \
          __m256 q3 = _mm256_loadu_ps(c3 + j);                                 \
          for (std::size_t kk = kc; kk < k1; ++kk) {                           \
            const __m256 bv = _mm256_loadu_ps(b + kk * n + j);                 \
            q0 = _mm256_fmadd_ps(_mm256_set1_ps(A_AT(0, kk)), bv, q0);         \
            q1 = _mm256_fmadd_ps(_mm256_set1_ps(A_AT(1, kk)), bv, q1);         \
            q2 = _mm256_fmadd_ps(_mm256_set1_ps(A_AT(2, kk)), bv, q2);         \
            q3 = _mm256_fmadd_ps(_mm256_set1_ps(A_AT(3, kk)), bv, q3);         \
          }                                                                    \
          _mm256_storeu_ps(c0 + j, q0);                                        \
          _mm256_storeu_ps(c1 + j, q1);                                        \
          _mm256_storeu_ps(c2 + j, q2);                                        \
          _mm256_storeu_ps(c3 + j, q3);                                        \
        }                                                                      \
        for (; j < n; ++j) {                                                   \
          float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];                \
          for (std::size_t kk = kc; kk < k1; ++kk) {                           \
            const float bv = b[kk * n + j];                                    \
            s0 = __builtin_fmaf(A_AT(0, kk), bv, s0);                          \
            s1 = __builtin_fmaf(A_AT(1, kk), bv, s1);                          \
            s2 = __builtin_fmaf(A_AT(2, kk), bv, s2);                          \
            s3 = __builtin_fmaf(A_AT(3, kk), bv, s3);                          \
          }                                                                    \
          c0[j] = s0;                                                          \
          c1[j] = s1;                                                          \
          c2[j] = s2;                                                          \
          c3[j] = s3;                                                          \
        }                                                                      \
      }                                                                        \
      for (; i < i1; ++i) {                                                    \
        float* cr = c + i * n;                                                 \
        std::size_t j = 0;                                                     \
        for (; j + 8 <= n; j += 8) {                                           \
          __m256 acc = _mm256_loadu_ps(cr + j);                                \
          for (std::size_t kk = kc; kk < k1; ++kk) {                           \
            acc = _mm256_fmadd_ps(_mm256_set1_ps(A_AT(0, kk)),                 \
                                  _mm256_loadu_ps(b + kk * n + j), acc);       \
          }                                                                    \
          _mm256_storeu_ps(cr + j, acc);                                       \
        }                                                                      \
        for (; j < n; ++j) {                                                   \
          float s = cr[j];                                                     \
          for (std::size_t kk = kc; kk < k1; ++kk) {                           \
            s = __builtin_fmaf(A_AT(0, kk), b[kk * n + j], s);                 \
          }                                                                    \
          cr[j] = s;                                                           \
        }                                                                      \
      }                                                                        \
    }                                                                          \
  }

}  // namespace

// NN: a is row-major m×k; tile row r tap kk sits at a[(i+r)*k + kk].
#define CMFL_A_NN(r, kk) a[(i + (r)) * k + (kk)]
// TN: a is k×m; tile row r tap kk sits at a[(kk)*m + i + r].
#define CMFL_A_TN(r, kk) a[(kk)*m + i + (r)]

namespace {
CMFL_DEFINE_GEMM_ACC_TILE(gemm_nn_acc_tile, CMFL_A_NN)
CMFL_DEFINE_GEMM_ACC_TILE(gemm_tn_acc_tile, CMFL_A_TN)
}  // namespace

#undef CMFL_A_NN
#undef CMFL_A_TN
#undef CMFL_DEFINE_GEMM_ACC_TILE

void gemm_nn_acc_avx2(const float* a, const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1) {
  gemm_nn_acc_tile(a, b, c, 0, k, n, i0, i1);
}

void gemm_tn_acc_avx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n, std::size_t i0,
                      std::size_t i1) {
  gemm_tn_acc_tile(a, b, c, m, k, n, i0, i1);
}

__attribute__((target("avx2,fma"))) void gemm_nt_avx2(
    const float* a, const float* b, float* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    const float* a2 = a + (i + 2) * k;
    const float* a3 = a + (i + 3) * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 bv = _mm256_loadu_ps(br + kk);
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + kk), bv, s0);
        s1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + kk), bv, s1);
        s2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + kk), bv, s2);
        s3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + kk), bv, s3);
      }
      float r0 = hsum8(s0), r1 = hsum8(s1), r2 = hsum8(s2), r3 = hsum8(s3);
      for (; kk < k; ++kk) {
        const float bv = br[kk];
        r0 = __builtin_fmaf(a0[kk], bv, r0);
        r1 = __builtin_fmaf(a1[kk], bv, r1);
        r2 = __builtin_fmaf(a2[kk], bv, r2);
        r3 = __builtin_fmaf(a3[kk], bv, r3);
      }
      c[(i + 0) * n + j] = r0;
      c[(i + 1) * n + j] = r1;
      c[(i + 2) * n + j] = r2;
      c[(i + 3) * n + j] = r3;
    }
  }
  for (; i < i1; ++i) {
    const float* ar = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      __m256 s = _mm256_setzero_ps();
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        s = _mm256_fmadd_ps(_mm256_loadu_ps(ar + kk), _mm256_loadu_ps(br + kk),
                            s);
      }
      float r = hsum8(s);
      for (; kk < k; ++kk) r = __builtin_fmaf(ar[kk], br[kk], r);
      c[i * n + j] = r;
    }
  }
}

__attribute__((target("avx2"))) void add_col_sums_rowmajor_avx2(
    const float* m, std::size_t rows, std::size_t cols, std::size_t row_stride,
    float* acc) {
  // Lanes are independent per-column accumulators; each sees its rows in
  // increasing order — bit-identical to the scalar loop.
  for (std::size_t r = 0; r < rows; ++r) {
    const float* mr = m + r * row_stride;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(
          acc + c, _mm256_add_ps(_mm256_loadu_ps(acc + c),
                                 _mm256_loadu_ps(mr + c)));
    }
    for (; c < cols; ++c) acc[c] += mr[c];
  }
}

__attribute__((target("avx2"))) void add_col_sums_colwise_avx2(
    const float* m, std::size_t rows, std::size_t cols, std::size_t col_stride,
    float* acc) {
  for (std::size_t c = 0; c < cols; ++c) {
    const float* mc = m + c * col_stride;
    __m256 s8 = _mm256_setzero_ps();
    std::size_t r = 0;
    for (; r + 8 <= rows; r += 8) {
      s8 = _mm256_add_ps(s8, _mm256_loadu_ps(mc + r));
    }
    float s = hsum8(s8);
    for (; r < rows; ++r) s += mc[r];
    acc[c] += s;
  }
}

namespace {
constexpr std::size_t kAggBlock = 1024;  // floats; one block stays in L1
}

__attribute__((target("avx2"))) void scaled_sum_avx2(const float* const* xs,
                                                     std::size_t count,
                                                     float scale, float* out,
                                                     std::size_t d) {
  const __m256 sv = _mm256_set1_ps(scale);
  for (std::size_t b0 = 0; b0 < d; b0 += kAggBlock) {
    const std::size_t b1 = b0 + (d - b0 < kAggBlock ? d - b0 : kAggBlock);
    for (std::size_t i = b0; i < b1; ++i) out[i] = 0.0f;
    for (std::size_t kx = 0; kx < count; ++kx) {
      const float* xp = xs[kx];
      std::size_t i = b0;
      for (; i + 8 <= b1; i += 8) {
        _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i),
                                                _mm256_loadu_ps(xp + i)));
      }
      for (; i < b1; ++i) out[i] += xp[i];
    }
    std::size_t i = b0;
    for (; i + 8 <= b1; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(out + i), sv));
    }
    for (; i < b1; ++i) out[i] *= scale;
  }
}

__attribute__((target("avx2,fma"))) void weighted_sum_avx2(
    const float* const* xs, const float* w, std::size_t count, float* out,
    std::size_t d) {
  for (std::size_t b0 = 0; b0 < d; b0 += kAggBlock) {
    const std::size_t b1 = b0 + (d - b0 < kAggBlock ? d - b0 : kAggBlock);
    for (std::size_t i = b0; i < b1; ++i) out[i] = 0.0f;
    for (std::size_t kx = 0; kx < count; ++kx) {
      const float* xp = xs[kx];
      const __m256 wv = _mm256_set1_ps(w[kx]);
      std::size_t i = b0;
      for (; i + 8 <= b1; i += 8) {
        _mm256_storeu_ps(out + i,
                         _mm256_fmadd_ps(wv, _mm256_loadu_ps(xp + i),
                                         _mm256_loadu_ps(out + i)));
      }
      for (; i < b1; ++i) out[i] = __builtin_fmaf(w[kx], xp[i], out[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// SignPack — branch-free IEEE-754 bit classification, 8 lanes at a time.
//
// Per lane: negative = sign bit (NaN keeps its payload sign, matching the
// scalar bits>>31); nonzero = magnitude in [1, 0x7F800000] — zero for ±0,
// excluded for NaN (magnitude > inf), included for ±inf and denormals.  All
// magnitudes fit a positive int32, so signed compares implement the unsigned
// range check exactly.
// ---------------------------------------------------------------------------

namespace {

// Packs 8 lanes into (neg, nz) 8-bit groups via movemask over the sign bits
// of the classification masks.
__attribute__((target("avx2"), always_inline)) inline void classify8(
    const float* v, unsigned& negbits, unsigned& nzbits) {
  const __m256 f = _mm256_loadu_ps(v);
  negbits = static_cast<unsigned>(_mm256_movemask_ps(f));
  const __m256i bits = _mm256_castps_si256(f);
  const __m256i mag = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFFFFFF));
  const __m256i gt0 = _mm256_cmpgt_epi32(mag, _mm256_setzero_si256());
  const __m256i gt_inf =
      _mm256_cmpgt_epi32(mag, _mm256_set1_epi32(0x7F800000));
  const __m256i nzm = _mm256_andnot_si256(gt_inf, gt0);
  nzbits =
      static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(nzm)));
}

__attribute__((target("avx2"), always_inline)) inline void pack_word64(
    const float* v, std::uint64_t& neg, std::uint64_t& nz) {
  std::uint64_t ng = 0, z = 0;
  for (std::size_t g = 0; g < 8; ++g) {
    unsigned negbits, nzbits;
    classify8(v + 8 * g, negbits, nzbits);
    ng |= static_cast<std::uint64_t>(negbits) << (8 * g);
    z |= static_cast<std::uint64_t>(nzbits) << (8 * g);
  }
  neg = ng;
  nz = z;
}

inline std::uint64_t match_word(std::uint64_t negx, std::uint64_t nzx,
                                std::uint64_t negy, std::uint64_t nzy) {
  return (nzx & nzy & ~(negx ^ negy)) | (~nzx & ~nzy);
}

}  // namespace

__attribute__((target("avx2"))) void signpack_words_avx2(const float* v,
                                                         std::size_t words,
                                                         std::uint64_t* neg,
                                                         std::uint64_t* nz) {
  for (std::size_t w = 0; w < words; ++w) {
    pack_word64(v + w * 64, neg[w], nz[w]);
  }
}

__attribute__((target("avx2,popcnt"))) std::size_t count_matches_words_avx2(
    const float* x, const std::uint64_t* negy, const std::uint64_t* nzy,
    std::size_t words) {
  std::size_t matches = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t negx, nzx;
    pack_word64(x + w * 64, negx, nzx);
    matches += static_cast<std::size_t>(
        __builtin_popcountll(match_word(negx, nzx, negy[w], nzy[w])));
  }
  return matches;
}

__attribute__((target("popcnt"))) std::size_t count_matches_packed_popcnt(
    const std::uint64_t* negx, const std::uint64_t* nzx,
    const std::uint64_t* negy, const std::uint64_t* nzy, std::size_t words) {
  std::size_t matches = 0;
  for (std::size_t w = 0; w < words; ++w) {
    matches += static_cast<std::size_t>(
        __builtin_popcountll(match_word(negx[w], nzx[w], negy[w], nzy[w])));
  }
  return matches;
}

}  // namespace cmfl::tensor::simd

#endif  // CMFL_SIMD_X86
