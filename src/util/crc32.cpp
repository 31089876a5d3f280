#include "util/crc32.h"

#include <array>

#include "util/simd.h"

#if CMFL_SIMD_X86
#include <immintrin.h>
#endif

namespace cmfl::util {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int j = 0; j < 8; ++j) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// Advances the CRC register `crc` over `data`, one byte at a time.
std::uint32_t table_update(std::uint32_t crc,
                           std::span<const std::byte> data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  for (const std::byte b : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if CMFL_SIMD_X86

// Folding constants for the reflected polynomial 0xEDB88320, from Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (the values Linux crc32-pclmul uses).  Each 128-bit vector
// holds (low, high) qwords: k1/k2 carry a lane 64 bytes ahead, k3/k4 carry
// it 16 bytes ahead, k5 reduces 96 bits to 64, and P′/μ drive the final
// Barrett reduction to 32 bits.
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

bool cpu_has_pclmul() noexcept {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

inline __m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: carries the running remainder `x` forward by the distance
/// `k` encodes and adds the next 16 input bytes.  A function, not a lambda:
/// GCC 12 does not carry the target attribute into lambdas.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i fold16(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// table_update(crc, p[0, n)) for n ≥ 64 and a multiple of 16: four 128-bit
/// lanes fold 64 bytes per step, then collapse into one lane that folds the
/// remaining 16-byte blocks and is reduced to the 32-bit register.  Loads
/// stay inside [p, p + n).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_update(
    std::uint32_t crc, const std::byte* p, std::size_t n) noexcept {
  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k12, load16(p));
    x1 = fold16(x1, k12, load16(p + 16));
    x2 = fold16(x2, k12, load16(p + 32));
    x3 = fold16(x3, k12, load16(p + 48));
  }
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i x = fold16(x0, k34, x1);
  x = fold16(x, k34, x2);
  x = fold16(x, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold16(x, k34, load16(p));

  // Reduce 128 bits to 64: the low qword folds onto the high one by k4,
  // then the low 32 bits of the result fold by k5.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k34, 0x10));
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, kK5),
                           0x00));
  // Barrett reduction by μ and P′: the 32-bit register ends in lane 1.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif  // CMFL_SIMD_X86

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
#if CMFL_SIMD_X86
  static const bool folded = cpu_has_pclmul();
  if (folded && data.size() >= 64) {
    // The fold takes the largest multiple of 16 bytes; the table loop
    // finishes the tail from the same register.
    const std::size_t n = data.size() & ~std::size_t{15};
    crc = fold_update(crc, data.data(), n);
    data = data.subspan(n);
  }
#endif
  return table_update(crc, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_ref(std::span<const std::byte> data) noexcept {
  return table_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

}  // namespace cmfl::util
