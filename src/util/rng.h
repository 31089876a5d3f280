// Deterministic, splittable pseudo-random number generation.
//
// All stochastic behaviour in this repository (weight init, data synthesis,
// mini-batch shuffling, client sampling) flows through util::Rng so that every
// experiment is bit-reproducible from a single seed.  Rng is cheap to copy and
// to split, which lets each federated client own an independent stream derived
// from the experiment seed — parallel and serial execution then produce
// identical traces.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

namespace cmfl::util {

/// SplitMix64: used to seed and to derive sub-streams.  Passes BigCrush when
/// used as a 64-bit generator; here it is primarily a seed sequencer.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x1234abcdULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform float in [lo, hi).
  float uniform_f(float lo, float hi) noexcept {
    return static_cast<float>(uniform(lo, hi));
  }

  /// Uniform integer in [0, n).  Uses Lemire's multiply-shift rejection.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // n == 0 is a caller bug; return 0 rather than divide-by-zero UB.
    if (n == 0) return 0;
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    if (hi <= lo) return lo;
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state trivially
  /// copyable and splitting semantics obvious).
  double normal() noexcept {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  float normal_f(float mean, float stddev) noexcept {
    return static_cast<float>(normal(mean, stddev));
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size()-1 on numerical underflow of the total.
  std::size_t categorical(std::span<const double> weights) noexcept {
    double total = 0;
    for (double w : weights) total += w;
    if (total <= 0) return 0;
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r < 0) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher–Yates in-place shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// The full generator state, for crash-consistent checkpointing: a
  /// restored stream continues the exact sequence the saved one would have
  /// produced.
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }

  /// Restores a state captured by state().
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

  /// Derives an independent child stream; deterministic in (state, salt).
  Rng split(std::uint64_t salt) noexcept {
    SplitMix64 sm(state_[0] ^ rotl(state_[2], 13) ^
                  (salt * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
    return Rng(sm.next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Flattens an Rng's state into opaque u64 words — the common currency of
/// the checkpoint layer's per-client state blobs.
inline std::vector<std::uint64_t> rng_state_words(const Rng& rng) {
  const auto s = rng.state();
  return std::vector<std::uint64_t>(s.begin(), s.end());
}

/// Restores a stream from words produced by rng_state_words().  Throws
/// std::invalid_argument if the word count is wrong.
inline void restore_rng_state(Rng& rng, std::span<const std::uint64_t> words) {
  std::array<std::uint64_t, 4> s{};
  if (words.size() != s.size()) {
    throw std::invalid_argument("restore_rng_state: expected 4 state words");
  }
  std::copy(words.begin(), words.end(), s.begin());
  rng.set_state(s);
}

/// Per-client resumable state, client id → opaque words (a client's or a
/// codec's mutable state), ordered by id.  fl/checkpoint.h holds its one
/// writer and its one reader.
using StateMap = std::map<std::uint64_t, std::vector<std::uint64_t>>;

}  // namespace cmfl::util
