// The Konečný-baseline codecs folded in from the former core/compression.h:
// dense (lossless), subsample (unbiased sketch), quant (stochastic
// rounding), structured mask.  Behavior-level invariants only — the
// exhaustive malformed-payload matrix lives in test_codec_malformed.cpp.
#include "codec/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace cmfl::codec {
namespace {

std::vector<float> random_update(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f(-0.5f, 0.5f);
  return v;
}

TEST(DenseCodec, LosslessRoundTrip) {
  DenseCodec c;
  const auto u = random_update(257, 1);
  const auto enc = c.encode(u);
  EXPECT_EQ(enc.wire_bytes(), 8u + 257 * 4);
  EXPECT_EQ(c.decode(enc.payload), u);
}

TEST(DenseCodec, TruncationDetected) {
  DenseCodec c;
  auto enc = c.encode(random_update(16, 2));
  enc.payload.resize(enc.payload.size() - 5);
  EXPECT_THROW(c.decode(enc.payload), std::runtime_error);
}

TEST(SubsampleCodec, ShrinksWireSize) {
  SubsampleCodec c(0.1, 3);
  const auto u = random_update(10000, 3);
  const auto enc = c.encode(u);
  // ~10% of coordinates at 8 bytes each + 16-byte header.
  EXPECT_LT(enc.wire_bytes(), 10000u * 4 / 2);
  EXPECT_GT(enc.wire_bytes(), 10000u / 20);
}

TEST(SubsampleCodec, UnbiasedInExpectation) {
  // Average many independent encodings: the reconstruction must converge to
  // the original (the 1/keep rescaling makes subsampling unbiased).
  const auto u = random_update(64, 4);
  std::vector<double> acc(64, 0.0);
  const int trials = 3000;
  SubsampleCodec c(0.25, 5);
  for (int t = 0; t < trials; ++t) {
    const auto dec = c.decode(c.encode(u).payload);
    for (std::size_t i = 0; i < 64; ++i) acc[i] += dec[i];
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(acc[i] / trials, u[i], 0.05);
  }
}

TEST(SubsampleCodec, RejectsBadKeep) {
  EXPECT_THROW(SubsampleCodec(0.0, 1), std::invalid_argument);
  EXPECT_THROW(SubsampleCodec(1.5, 1), std::invalid_argument);
}

TEST(QuantCodec, OneBytePerCoordinateAt8Bits) {
  QuantCodec c(8, 6);
  const auto u = random_update(1000, 6);
  const auto enc = c.encode(u);
  // [u64 dim][u8 bits][f32 lo][f32 hi][1 byte per coordinate].
  EXPECT_EQ(enc.wire_bytes(), 8u + 1 + 4 + 4 + 1000);
}

TEST(QuantCodec, BoundedError) {
  QuantCodec c(8, 7);
  const auto u = random_update(500, 7);
  const auto dec = c.decode(c.encode(u).payload);
  // Max error is one quantization step = range/255.
  const float range = 1.0f;  // values in [-0.5, 0.5]
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(dec[i], u[i], range / 255.0f * 1.5f);
  }
}

TEST(QuantCodec, StochasticRoundingUnbiased) {
  const std::vector<float> u = {0.1f, -0.3f, 0.42f, 0.0f, -0.5f, 0.5f};
  QuantCodec c(8, 8);
  std::vector<double> acc(u.size(), 0.0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const auto dec = c.decode(c.encode(u).payload);
    for (std::size_t i = 0; i < u.size(); ++i) acc[i] += dec[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(acc[i] / trials, u[i], 2e-3);
  }
}

TEST(QuantCodec, ConstantVectorExact) {
  QuantCodec c(8, 9);
  const std::vector<float> u(32, 0.25f);
  const auto dec = c.decode(c.encode(u).payload);
  for (float v : dec) EXPECT_FLOAT_EQ(v, 0.25f);
}

TEST(StructuredMaskCodec, KeepsValuesUnscaled) {
  StructuredMaskCodec c(0.5, 10);
  const auto u = random_update(2000, 10);
  const auto dec = c.decode(c.encode(u).payload);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (dec[i] != 0.0f) {
      EXPECT_FLOAT_EQ(dec[i], u[i]);  // exact value, no rescaling
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / 2000.0, 0.5, 0.05);
}

TEST(MakeUpdateCodec, FactoryDispatch) {
  EXPECT_EQ(make_update_codec("dense", 1)->name(), "dense");
  EXPECT_EQ(make_update_codec("subsample:0.10", 1)->name(),
            "subsample:0.10");
  EXPECT_EQ(make_update_codec("structured:0.25", 1)->name(),
            "structured:0.25");
  EXPECT_THROW(make_update_codec("bogus", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("bogus:0.5", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("zstd", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("quantize8", 1), std::invalid_argument);
  EXPECT_THROW(make_update_codec("float32", 1), std::invalid_argument);
}

TEST(Codecs, CorruptIndexRejected) {
  SubsampleCodec c(1.0, 11);
  auto enc = c.encode(random_update(4, 11));
  // Corrupt the first stored index to an out-of-range value.
  const std::size_t index_pos = 16;  // after the two u64 headers
  std::uint32_t bad = 1000;
  std::memcpy(enc.payload.data() + index_pos, &bad, sizeof(bad));
  EXPECT_THROW(c.decode(enc.payload), std::runtime_error);
}

}  // namespace
}  // namespace cmfl::codec
