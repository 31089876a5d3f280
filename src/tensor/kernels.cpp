#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "tensor/kernels_simd.h"
#include "util/work_pool.h"

namespace cmfl::tensor {

namespace kernels {

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

namespace {

std::atomic<Tier> g_tier{Tier::kAuto};

/// True when the current dispatch should take the AVX2/FMA backend.
inline bool use_fast() noexcept {
#if CMFL_SIMD_X86
  return active_tier() == Tier::kFast;
#else
  return false;
#endif
}

}  // namespace

void set_tier(Tier t) noexcept { g_tier.store(t); }

Tier tier() noexcept { return g_tier.load(); }

bool fast_tier_available() noexcept {
#if CMFL_SIMD_X86
  static const bool ok = simd::cpu_has_avx2_fma();
  return ok;
#else
  return false;
#endif
}

Tier active_tier() noexcept {
  const Tier t = g_tier.load();
  if (t == Tier::kExact) return Tier::kExact;
  // kAuto and kFast both resolve against hardware support; kFast is never
  // emulated on machines without AVX2+FMA.
  return fast_tier_available() ? Tier::kFast : Tier::kExact;
}

const char* simd_level() noexcept {
  return fast_tier_available() ? "avx2-fma" : "scalar";
}

// ---------------------------------------------------------------------------
// Threading configuration
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::size_t> g_max_threads{0};  // 0 = env override / hw conc.

std::mutex g_pool_mutex;
std::unique_ptr<util::WorkStealingPool> g_pool;
std::size_t g_pool_built_for = 0;  // effective setting the pool was built for

/// The worker-count setting dispatches resolve: explicit set_max_threads()
/// wins, then the CMFL_THREADS environment override, then 0 (hardware
/// concurrency, resolved inside WorkStealingPool).
std::size_t effective_threads() noexcept {
  const std::size_t n = g_max_threads.load();
  return n != 0 ? n : env_max_threads();
}

void check_same_size(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    throw std::invalid_argument(std::string(what) + ": size mismatch (" +
                                std::to_string(a) + " vs " +
                                std::to_string(b) + ")");
  }
}

}  // namespace

void set_max_threads(std::size_t n) { g_max_threads.store(n); }

std::size_t max_threads() noexcept { return g_max_threads.load(); }

std::size_t env_max_threads() noexcept {
  static const std::size_t cached = []() noexcept -> std::size_t {
    const char* s = std::getenv("CMFL_THREADS");
    if (s == nullptr || *s == '\0') return 0;
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    // Reject trailing garbage, zero, and absurd counts; 0 means "unset".
    if (end == s || *end != '\0' || v == 0 || v > 4096) return 0;
    return static_cast<std::size_t>(v);
  }();
  return cached;
}

util::WorkStealingPool* pool() {
  const std::size_t want = effective_threads();
  if (want == 1) return nullptr;
  // Rebuilt (the destructor joins the old threads) whenever the
  // effective setting changed since the last dispatch, so benches can record
  // single- and multi-threaded rows in one process.  Callers must not change
  // the setting concurrently with an in-flight kernel.
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool == nullptr || g_pool_built_for != want) {
    g_pool.reset();
    g_pool = std::make_unique<util::WorkStealingPool>(want);
    g_pool_built_for = want;
  }
  return g_pool.get();
}

bool parallel_rows_active(std::size_t rows, std::size_t total_macs) {
  if (rows < 2 || total_macs < kParallelMacThreshold) return false;
  util::WorkStealingPool* p = pool();
  return p != nullptr && p->threads() >= 2;
}

void parallel_rows_dispatch(
    std::size_t rows, const std::function<void(std::size_t, std::size_t)>& fn) {
  util::WorkStealingPool* p = pool();
  const std::size_t chunks = std::min(rows, p->threads());
  p->run(chunks, [&](std::size_t c) {
    // Fixed partition: chunk c owns rows [c*rows/chunks, (c+1)*rows/chunks).
    const std::size_t begin = c * rows / chunks;
    const std::size_t end = (c + 1) * rows / chunks;
    if (begin < end) fn(begin, end);
  });
}

// ---------------------------------------------------------------------------
// Blocked / register-tiled GEMM
//
// Tiling constants: MR output rows share each streamed B row (register
// reuse); KC keeps the active A panel resident in L1; NC keeps the active
// B/C panels inside L2.  Loop nests are arranged so each output element
// still accumulates over k in strictly increasing order (see header).
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMR = 4;    // rows per register tile
constexpr std::size_t kKC = 128;  // k-block
constexpr std::size_t kNC = 1024; // j-block (floats)

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, std::size_t /*m*/,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::fill(c + i * n, c + (i + 1) * n, 0.0f);
  }
#if CMFL_SIMD_X86
  if (use_fast()) {
    simd::gemm_nn_acc_avx2(a, b, c, k, n, i0, i1);
    return;
  }
#endif
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t jn = std::min(kNC, n - jc);
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      const std::size_t kn = std::min(kKC, k - kc);
      std::size_t i = i0;
      for (; i + kMR <= i1; i += kMR) {
        float* __restrict__ c0 = c + (i + 0) * n + jc;
        float* __restrict__ c1 = c + (i + 1) * n + jc;
        float* __restrict__ c2 = c + (i + 2) * n + jc;
        float* __restrict__ c3 = c + (i + 3) * n + jc;
        for (std::size_t kk = kc; kk < kc + kn; ++kk) {
          const float a0 = a[(i + 0) * k + kk];
          const float a1 = a[(i + 1) * k + kk];
          const float a2 = a[(i + 2) * k + kk];
          const float a3 = a[(i + 3) * k + kk];
          const float* __restrict__ br = b + kk * n + jc;
          for (std::size_t j = 0; j < jn; ++j) {
            const float bv = br[j];
            c0[j] += a0 * bv;
            c1[j] += a1 * bv;
            c2[j] += a2 * bv;
            c3[j] += a3 * bv;
          }
        }
      }
      for (; i < i1; ++i) {
        float* __restrict__ cr = c + i * n + jc;
        for (std::size_t kk = kc; kk < kc + kn; ++kk) {
          const float ai = a[i * k + kk];
          const float* __restrict__ br = b + kk * n + jc;
          for (std::size_t j = 0; j < jn; ++j) cr[j] += ai * br[j];
        }
      }
    }
  }
}

void gemm_nn_acc(const float* a, const float* b, float* c, std::size_t /*m*/,
                 std::size_t k, std::size_t n, std::size_t i0, std::size_t i1) {
  // gemm_nn minus the zero-fill: identical blocked loop nest, so each output
  // element still sees its k taps in strictly increasing order — just seeded
  // from the caller-provided c values instead of 0.
#if CMFL_SIMD_X86
  if (use_fast()) {
    simd::gemm_nn_acc_avx2(a, b, c, k, n, i0, i1);
    return;
  }
#endif
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t jn = std::min(kNC, n - jc);
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      const std::size_t kn = std::min(kKC, k - kc);
      std::size_t i = i0;
      for (; i + kMR <= i1; i += kMR) {
        float* __restrict__ c0 = c + (i + 0) * n + jc;
        float* __restrict__ c1 = c + (i + 1) * n + jc;
        float* __restrict__ c2 = c + (i + 2) * n + jc;
        float* __restrict__ c3 = c + (i + 3) * n + jc;
        for (std::size_t kk = kc; kk < kc + kn; ++kk) {
          const float a0 = a[(i + 0) * k + kk];
          const float a1 = a[(i + 1) * k + kk];
          const float a2 = a[(i + 2) * k + kk];
          const float a3 = a[(i + 3) * k + kk];
          const float* __restrict__ br = b + kk * n + jc;
          for (std::size_t j = 0; j < jn; ++j) {
            const float bv = br[j];
            c0[j] += a0 * bv;
            c1[j] += a1 * bv;
            c2[j] += a2 * bv;
            c3[j] += a3 * bv;
          }
        }
      }
      for (; i < i1; ++i) {
        float* __restrict__ cr = c + i * n + jc;
        for (std::size_t kk = kc; kk < kc + kn; ++kk) {
          const float ai = a[i * k + kk];
          const float* __restrict__ br = b + kk * n + jc;
          for (std::size_t j = 0; j < jn; ++j) cr[j] += ai * br[j];
        }
      }
    }
  }
}

void add_col_sums(const float* m, std::size_t rows, std::size_t cols,
                  std::size_t row_stride, std::size_t col_stride,
                  std::span<float> acc) {
  check_same_size(acc.size(), cols, "add_col_sums");
#if CMFL_SIMD_X86
  if (use_fast()) {
    if (col_stride == 1) {
      // Lanes are independent per-column accumulators: bit-identical.
      simd::add_col_sums_rowmajor_avx2(m, rows, cols, row_stride, acc.data());
      return;
    }
    if (row_stride == 1) {
      // Contiguous per-column reduce in 8 partial lanes (ULP-bounded).
      simd::add_col_sums_colwise_avx2(m, rows, cols, col_stride, acc.data());
      return;
    }
    // Doubly-strided layouts (unused today) fall through to the scalar loop.
  }
#endif
  if (col_stride == 1) {
    // Row-major contiguous layout: stream whole rows (r outer) so every
    // accumulator still sees its rows in increasing order.
    for (std::size_t r = 0; r < rows; ++r) {
      const float* mr = m + r * row_stride;
      for (std::size_t c = 0; c < cols; ++c) acc[c] += mr[c];
    }
    return;
  }
  // Strided columns: a per-column register accumulator walks rows in
  // increasing order — the same per-accumulator sequence as above.
  for (std::size_t c = 0; c < cols; ++c) {
    const float* mc = m + c * col_stride;
    float s = acc[c];
    for (std::size_t r = 0; r < rows; ++r) s += mc[r * row_stride];
    acc[c] = s;
  }
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::fill(c + i * n, c + (i + 1) * n, 0.0f);
  }
#if CMFL_SIMD_X86
  if (use_fast()) {
    simd::gemm_tn_acc_avx2(a, b, c, m, k, n, i0, i1);
    return;
  }
#endif
  // a is (k×m): element (kk, i) sits at a[kk*m + i].
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t jn = std::min(kNC, n - jc);
    std::size_t i = i0;
    for (; i + kMR <= i1; i += kMR) {
      float* __restrict__ c0 = c + (i + 0) * n + jc;
      float* __restrict__ c1 = c + (i + 1) * n + jc;
      float* __restrict__ c2 = c + (i + 2) * n + jc;
      float* __restrict__ c3 = c + (i + 3) * n + jc;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* ar = a + kk * m + i;
        const float a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
        const float* __restrict__ br = b + kk * n + jc;
        for (std::size_t j = 0; j < jn; ++j) {
          const float bv = br[j];
          c0[j] += a0 * bv;
          c1[j] += a1 * bv;
          c2[j] += a2 * bv;
          c3[j] += a3 * bv;
        }
      }
    }
    for (; i < i1; ++i) {
      float* __restrict__ cr = c + i * n + jc;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float ai = a[kk * m + i];
        const float* __restrict__ br = b + kk * n + jc;
        for (std::size_t j = 0; j < jn; ++j) cr[j] += ai * br[j];
      }
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t /*m*/,
             std::size_t k, std::size_t n, std::size_t i0, std::size_t i1) {
#if CMFL_SIMD_X86
  if (use_fast()) {
    simd::gemm_nt_avx2(a, b, c, k, n, i0, i1);
    return;
  }
#endif
  // Row-dot kernel: a 2×2 register tile of double accumulators reuses each
  // loaded a/b element twice while keeping per-element k order intact.
  std::size_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      double s00 = 0.0, s01 = 0.0, s10 = 0.0, s11 = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av0 = a0[kk], av1 = a1[kk];
        const double bv0 = b0[kk], bv1 = b1[kk];
        s00 += av0 * bv0;
        s01 += av0 * bv1;
        s10 += av1 * bv0;
        s11 += av1 * bv1;
      }
      c[(i + 0) * n + j + 0] = static_cast<float>(s00);
      c[(i + 0) * n + j + 1] = static_cast<float>(s01);
      c[(i + 1) * n + j + 0] = static_cast<float>(s10);
      c[(i + 1) * n + j + 1] = static_cast<float>(s11);
    }
    for (; j < n; ++j) {
      const float* b0 = b + j * k;
      double s0 = 0.0, s1 = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double bv = b0[kk];
        s0 += static_cast<double>(a0[kk]) * bv;
        s1 += static_cast<double>(a1[kk]) * bv;
      }
      c[(i + 0) * n + j] = static_cast<float>(s0);
      c[(i + 1) * n + j] = static_cast<float>(s1);
    }
  }
  for (; i < i1; ++i) {
    const float* ar = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(ar[kk]) * static_cast<double>(br[kk]);
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Naive seed kernels (reference for tests and the old-path benchmark)
// ---------------------------------------------------------------------------

void gemm_nn_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  std::fill(c, c + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    float* cr = c + i * n;
    const float* ar = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = ar[kk];
      if (aik == 0.0f) continue;
      const float* br = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) cr[j] += aik * br[j];
    }
  }
}

void gemm_tn_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  std::fill(c, c + m * n, 0.0f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* ar = a + kk * m;
    const float* br = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = ar[i];
      if (aki == 0.0f) continue;
      float* cr = c + i * n;
      for (std::size_t j = 0; j < n; ++j) cr[j] += aki * br[j];
    }
  }
}

void gemm_nt_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* ar = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(ar[kk]) * static_cast<double>(br[kk]);
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Fused server aggregation
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kAggBlock = 1024;  // floats; one block stays in L1
}

namespace {

#if CMFL_SIMD_X86
/// Raw data pointers (offset by `lo` floats) for the SIMD aggregation
/// backends.  Aggregation runs server-side (not in the allocation-free
/// client training step), so a small heap vector per call is fine.
std::vector<const float*> view_pointers(
    std::span<const std::span<const float>> xs, std::size_t lo) {
  std::vector<const float*> ps;
  ps.reserve(xs.size());
  for (const auto& x : xs) ps.push_back(x.data() + lo);
  return ps;
}
#endif

void check_range(std::size_t lo, std::size_t hi, std::size_t size,
                 const char* what) {
  if (lo > hi || hi > size) {
    throw std::invalid_argument(std::string(what) + ": bad range");
  }
}

}  // namespace

void scaled_sum_range(std::span<const std::span<const float>> xs, float scale,
                      std::span<float> out, std::size_t lo, std::size_t hi) {
  for (const auto& x : xs) check_same_size(x.size(), out.size(), "scaled_sum");
  check_range(lo, hi, out.size(), "scaled_sum_range");
#if CMFL_SIMD_X86
  if (use_fast()) {
    const auto ps = view_pointers(xs, lo);
    // Lane-independent adds in the exact client order plus one multiply:
    // bit-identical to the exact tier (and the seed's accumulate-then-scale).
    // Every element's op sequence is position-independent, so the offset
    // call equals the same elements of the full-vector call.
    simd::scaled_sum_avx2(ps.data(), ps.size(), scale, out.data() + lo,
                          hi - lo);
    return;
  }
#endif
  for (std::size_t b0 = lo; b0 < hi; b0 += kAggBlock) {
    const std::size_t b1 = std::min(hi, b0 + kAggBlock);
    std::fill(out.begin() + b0, out.begin() + b1, 0.0f);
    for (const auto& x : xs) {
      const float* xp = x.data();
      for (std::size_t i = b0; i < b1; ++i) out[i] += xp[i];
    }
    for (std::size_t i = b0; i < b1; ++i) out[i] *= scale;
  }
}

void scaled_sum(std::span<const std::span<const float>> xs, float scale,
                std::span<float> out) {
  scaled_sum_range(xs, scale, out, 0, out.size());
}

void weighted_sum_range(std::span<const std::span<const float>> xs,
                        std::span<const float> w, std::span<float> out,
                        std::size_t lo, std::size_t hi) {
  check_same_size(xs.size(), w.size(), "weighted_sum");
  for (const auto& x : xs) {
    check_same_size(x.size(), out.size(), "weighted_sum");
  }
  check_range(lo, hi, out.size(), "weighted_sum_range");
#if CMFL_SIMD_X86
  if (use_fast()) {
    const auto ps = view_pointers(xs, lo);
    simd::weighted_sum_avx2(ps.data(), w.data(), ps.size(), out.data() + lo,
                            hi - lo);
    return;
  }
#endif
  for (std::size_t b0 = lo; b0 < hi; b0 += kAggBlock) {
    const std::size_t b1 = std::min(hi, b0 + kAggBlock);
    std::fill(out.begin() + b0, out.begin() + b1, 0.0f);
    for (std::size_t kx = 0; kx < xs.size(); ++kx) {
      const float* xp = xs[kx].data();
      const float wk = w[kx];
      for (std::size_t i = b0; i < b1; ++i) out[i] += wk * xp[i];
    }
  }
}

}  // namespace kernels

// ---------------------------------------------------------------------------
// SignPack
// ---------------------------------------------------------------------------

namespace {

inline std::uint64_t tail_mask(std::size_t n) {
  const std::size_t rem = n % 64;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

/// Folds 8 contiguous 0/1 bytes into bits 0..7 (byte g -> bit g).  The
/// multiply scatters byte g to bit 56+g with no carry collisions; the shift
/// collects them.
inline std::uint64_t pack8(const std::uint8_t* b) {
  std::uint64_t x;
  std::memcpy(&x, b, 8);
  return (x * 0x0102040810204080ULL) >> 56;
}

/// Packs up to 64 lanes starting at v into (negative, nonzero) words.
/// Branch-free via the IEEE-754 layout: the sign is the top bit, and the
/// three-way sign is nonzero exactly when the magnitude bits lie in
/// (0, 0x7F800000] — zero for ±0, above for NaN (so NaN packs as class 0,
/// matching (f > 0) || (f < 0)).  Two passes so the compare loop stays
/// vectorizable: class bytes first, then bytes folded into the two words.
inline void pack_chunk(const float* v, std::size_t lanes, std::uint64_t& neg,
                       std::uint64_t& nz) {
  std::uint8_t negb[64], nzb[64];
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto bits = std::bit_cast<std::uint32_t>(v[l]);
    const std::uint32_t mag = bits & 0x7FFFFFFFu;
    negb[l] = static_cast<std::uint8_t>(bits >> 31);
    nzb[l] = static_cast<std::uint8_t>(mag - 1u < 0x7F800000u);
  }
  if (lanes == 64) {
    std::uint64_t ng = 0, z = 0;
    for (std::size_t g = 0; g < 8; ++g) {
      ng |= pack8(negb + 8 * g) << (8 * g);
      z |= pack8(nzb + 8 * g) << (8 * g);
    }
    neg = ng;
    nz = z;
    return;
  }
  std::uint64_t ng = 0, z = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    ng |= static_cast<std::uint64_t>(negb[l]) << l;
    z |= static_cast<std::uint64_t>(nzb[l]) << l;
  }
  neg = ng;
  nz = z;
}

/// Bits where the three-way sign classes agree: both nonzero with equal
/// negative bits, or both zero.
inline std::uint64_t match_word(std::uint64_t negx, std::uint64_t nzx,
                                std::uint64_t negy, std::uint64_t nzy) {
  return (nzx & nzy & ~(negx ^ negy)) | (~nzx & ~nzy);
}

}  // namespace

namespace {

/// SIMD backends are pure bit classification (no float arithmetic), so the
/// fast SignPack path is bit-for-bit equal to the scalar one on every input;
/// tier forcing still selects the implementation for testability.
inline bool signpack_use_fast() noexcept {
#if CMFL_SIMD_X86
  return kernels::active_tier() == kernels::Tier::kFast;
#else
  return false;
#endif
}

}  // namespace

void SignPack::assign(std::span<const float> v) {
  n_ = v.size();
  const std::size_t words = (n_ + 63) / 64;
  neg_.assign(words, 0);
  nz_.assign(words, 0);
  std::size_t w = 0;
#if CMFL_SIMD_X86
  if (signpack_use_fast()) {
    const std::size_t full = n_ / 64;
    simd::signpack_words_avx2(v.data(), full, neg_.data(), nz_.data());
    w = full;  // any partial tail word packs below with the scalar path
  }
#endif
  for (; w < words; ++w) {
    const std::size_t base = w * 64;
    pack_chunk(v.data() + base, std::min<std::size_t>(64, n_ - base), neg_[w],
               nz_[w]);
  }
}

bool SignPack::all_zero() const noexcept {
  for (std::uint64_t w : nz_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t count_sign_matches(const SignPack& x, const SignPack& y) {
  kernels::check_same_size(x.size(), y.size(), "count_sign_matches(pack)");
  if (x.size() == 0) return 0;
  const auto negx = x.negative_words(), negy = y.negative_words();
  const auto nzx = x.nonzero_words(), nzy = y.nonzero_words();
  const std::size_t words = nzx.size();
  std::size_t matches = 0;
#if CMFL_SIMD_X86
  if (signpack_use_fast()) {
    // Hardware-popcount sweep over every full word; the tail word below is
    // shared with the scalar path (identical bits either way).
    matches = simd::count_matches_packed_popcnt(negx.data(), nzx.data(),
                                                negy.data(), nzy.data(),
                                                words - 1);
    matches += static_cast<std::size_t>(
        std::popcount(match_word(negx[words - 1], nzx[words - 1],
                                 negy[words - 1], nzy[words - 1]) &
                      tail_mask(x.size())));
    return matches;
  }
#endif
  for (std::size_t w = 0; w + 1 < words; ++w) {
    matches += static_cast<std::size_t>(
        std::popcount(match_word(negx[w], nzx[w], negy[w], nzy[w])));
  }
  matches += static_cast<std::size_t>(
      std::popcount(match_word(negx[words - 1], nzx[words - 1], negy[words - 1],
                               nzy[words - 1]) &
                    tail_mask(x.size())));
  return matches;
}

std::size_t count_sign_matches(std::span<const float> x, const SignPack& y) {
  kernels::check_same_size(x.size(), y.size(), "count_sign_matches(pack)");
  if (x.empty()) return 0;
  const auto negy = y.negative_words();
  const auto nzy = y.nonzero_words();
  const std::size_t words = nzy.size();
  std::size_t matches = 0;
  std::size_t w = 0;
#if CMFL_SIMD_X86
  if (signpack_use_fast()) {
    const std::size_t full = x.size() / 64;
    matches = simd::count_matches_words_avx2(x.data(), negy.data(), nzy.data(),
                                             full);
    w = full;  // the partial tail word (if any) runs through the scalar path
  }
#endif
  for (; w < words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, x.size() - base);
    std::uint64_t negx, nzx;
    pack_chunk(x.data() + base, lanes, negx, nzx);
    std::uint64_t m = match_word(negx, nzx, negy[w], nzy[w]);
    if (lanes < 64) m &= (std::uint64_t{1} << lanes) - 1;
    matches += static_cast<std::size_t>(std::popcount(m));
  }
  return matches;
}

}  // namespace cmfl::tensor
