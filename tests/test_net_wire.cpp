#include "net/message.h"
#include "net/wire.h"

#include <gtest/gtest.h>

namespace cmfl::net {
namespace {

TEST(Wire, PodRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x123456789ABCDEF0ULL);
  w.f32(3.25f);
  w.f64(-1.5);
  const auto buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x123456789ABCDEF0ULL);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -1.5);
  EXPECT_TRUE(r.done());
}

TEST(Wire, FloatArrayRoundTrip) {
  WireWriter w;
  const std::vector<float> data = {1.0f, -2.5f, 0.0f};
  w.floats(data);
  const auto buf = w.take();
  WireReader r(buf);
  EXPECT_EQ(r.floats(), data);
}

TEST(Wire, EmptyFloatArrayRoundTrip) {
  WireWriter w;
  w.floats({});
  w.u8(7);
  const auto buf = w.take();
  EXPECT_EQ(buf.size(), 9u);
  WireReader r(buf);
  EXPECT_TRUE(r.floats().empty());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.u32(42);
  const auto buf = w.take();
  WireReader r(buf);
  r.u32();
  EXPECT_THROW(r.u8(), std::runtime_error);
}

TEST(Wire, OversizedArrayLengthRejected) {
  WireWriter w;
  w.u64(1ULL << 60);  // claims an absurd float count
  const auto buf = w.take();
  WireReader r(buf);
  EXPECT_THROW(r.floats(), std::runtime_error);
}

TEST(Message, BroadcastRoundTrip) {
  BroadcastMsg b;
  b.seq = 99;
  b.iteration = 42;
  b.learning_rate = 0.05f;
  b.global_params = {1.0f, 2.0f, 3.0f};
  b.global_update = {-0.1f, 0.2f, 0.0f};
  const auto frame = encode(Message(b));
  const Message decoded = decode(frame);
  const auto& d = std::get<BroadcastMsg>(decoded);
  EXPECT_EQ(d.seq, 99u);
  EXPECT_EQ(d.iteration, 42u);
  EXPECT_FLOAT_EQ(d.learning_rate, 0.05f);
  EXPECT_EQ(d.global_params, b.global_params);
  EXPECT_EQ(d.global_update, b.global_update);
}

TEST(Message, UpdateUploadRoundTrip) {
  UpdateUploadMsg u;
  u.seq = 4;
  u.iteration = 7;
  u.client_id = 13;
  u.update = {0.5f, -0.5f};
  u.score = 0.75;
  const auto frame = encode(Message(u));
  const Message decoded = decode(frame);
  const auto& d = std::get<UpdateUploadMsg>(decoded);
  EXPECT_EQ(d.seq, 4u);
  EXPECT_EQ(d.iteration, 7u);
  EXPECT_EQ(d.client_id, 13u);
  EXPECT_EQ(d.update, u.update);
  EXPECT_DOUBLE_EQ(d.score, 0.75);
}

TEST(Message, EliminationRoundTripAndSize) {
  EliminationMsg e;
  e.seq = 8;
  e.iteration = 3;
  e.client_id = 5;
  e.score = 0.31;
  const auto frame = encode(Message(e));
  const Message decoded = decode(frame);
  const auto& d = std::get<EliminationMsg>(decoded);
  EXPECT_EQ(d.seq, 8u);
  EXPECT_EQ(d.client_id, 5u);
  EXPECT_DOUBLE_EQ(d.score, 0.31);
  // "The transferred data size of this status information is negligible":
  // the elimination frame is fixed-size and tiny.
  EXPECT_LE(frame.size(), 32u);
}

TEST(Message, UploadFrameDwarfsEliminationFrame) {
  UpdateUploadMsg u;
  u.update.assign(10000, 1.0f);
  const auto upload = encode(Message(u));
  const auto elim = encode(Message(EliminationMsg{}));
  EXPECT_GT(upload.size(), 100 * elim.size());
}

TEST(Message, ShutdownRoundTrip) {
  const auto frame = encode(Message(ShutdownMsg{}));
  EXPECT_TRUE(std::holds_alternative<ShutdownMsg>(decode(frame)));
  EXPECT_EQ(frame.size(), 1u);
}

TEST(Message, CorruptedFramesRejected) {
  // Unknown type byte.
  std::vector<std::byte> bad = {std::byte{0x7F}};
  EXPECT_THROW(decode(bad), std::runtime_error);
  // Truncated broadcast.
  BroadcastMsg b;
  b.global_params = {1.0f, 2.0f};
  auto frame = encode(Message(b));
  frame.resize(frame.size() - 4);
  EXPECT_THROW(decode(frame), std::runtime_error);
  // Trailing garbage.
  auto frame2 = encode(Message(ShutdownMsg{}));
  frame2.push_back(std::byte{0});
  EXPECT_THROW(decode(frame2), std::runtime_error);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (the classic check value).
  const char* s = "123456789";
  std::vector<std::byte> data;
  for (const char* p = s; *p; ++p) data.push_back(std::byte(*p));
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32({}), 0u);
}

/// The sealed frames the integrity tests corrupt: a 29-byte elimination
/// frame, below the 64 bytes the folded CRC path starts at, and a
/// 4,133-byte upload frame of 1,024 floats, most of which the fold checks.
std::vector<std::vector<std::byte>> sealed_frames() {
  auto small = encode(Message(EliminationMsg{7, 11, 2, 0.9}));
  seal_frame(small);
  UpdateUploadMsg up{7, 11, 2, {}, 0.9};
  for (int i = 0; i < 1024; ++i) up.update.push_back(0.01f * (i % 97) - 0.5f);
  auto large = encode(Message(up));
  seal_frame(large);
  return {small, large};
}

TEST(FrameSeal, RoundTrip) {
  auto frame = encode(Message(EliminationMsg{1, 3, 5, 0.4}));
  const std::size_t unsealed = frame.size();
  seal_frame(frame);
  EXPECT_EQ(frame.size(), unsealed + 4);
  const auto payload = open_frame(frame);
  EXPECT_EQ(payload.size(), unsealed);
  EXPECT_TRUE(std::holds_alternative<EliminationMsg>(decode(payload)));
}

TEST(FrameSeal, DetectsCorruption) {
  auto frame = encode(Message(EliminationMsg{1, 3, 5, 0.4}));
  seal_frame(frame);
  // Flip one payload bit.
  frame[4] ^= std::byte{0x01};
  EXPECT_THROW(open_frame(frame), std::runtime_error);
  // Flip a CRC bit instead.
  auto frame2 = encode(Message(ShutdownMsg{}));
  seal_frame(frame2);
  frame2.back() ^= std::byte{0xFF};
  EXPECT_THROW(open_frame(frame2), std::runtime_error);
  // Undersized frame.
  std::vector<std::byte> tiny = {std::byte{1}, std::byte{2}};
  EXPECT_THROW(open_frame(tiny), std::runtime_error);
}

TEST(FrameSeal, TryOpenFrameMatchesOpenFrame) {
  auto frame = encode(Message(EliminationMsg{2, 9, 1, 0.5}));
  seal_frame(frame);
  const auto ok = try_open_frame(frame);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(std::holds_alternative<EliminationMsg>(decode(*ok)));
  frame[0] ^= std::byte{0x80};
  EXPECT_FALSE(try_open_frame(frame).has_value());
}

TEST(FrameSeal, EverySingleBitFlipRejected) {
  // CRC-32 detects all single-bit errors, so flipping any one bit anywhere
  // in a sealed frame — payload or CRC — must make try_open_frame fail.
  // This is exactly the fault FaultyChannel's corrupt_prob injects.
  for (const auto& sealed : sealed_frames()) {
    auto flipped = sealed;
    for (std::size_t pos = 0; pos < sealed.size(); ++pos) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<std::byte>(1u << bit);
        flipped[pos] ^= mask;
        EXPECT_FALSE(try_open_frame(flipped).has_value())
            << "single-bit flip at byte " << pos << " bit " << bit << " of a "
            << sealed.size() << "-byte frame was not detected";
        flipped[pos] ^= mask;
      }
    }
  }
}

TEST(FrameSeal, EveryTruncationIsRejected) {
  // Every strict prefix must be rejected: either too short to carry a CRC,
  // or carrying a CRC that no longer matches the shortened payload.
  for (const auto& sealed : sealed_frames()) {
    for (std::size_t len = 0; len < sealed.size(); ++len) {
      const std::span<const std::byte> prefix(sealed.data(), len);
      EXPECT_FALSE(try_open_frame(prefix).has_value())
          << "truncation of a " << sealed.size() << "-byte frame to " << len
          << " bytes was not detected";
    }
    EXPECT_TRUE(try_open_frame(sealed).has_value());
  }
}

TEST(FrameSeal, EncodeLeavesRoomForTheSeal) {
  // encode() allocates the frame with room for its CRC, so sealing a
  // megabyte frame neither reallocates nor copies it.
  UpdateUploadMsg up;
  up.update.assign(1 << 18, 0.25f);
  auto frame = encode(Message(up));
  const std::byte* before = frame.data();
  seal_frame(frame);
  EXPECT_EQ(frame.data(), before);
  EXPECT_EQ(open_frame(frame).size() + kSealBytes, frame.size());
}

TEST(FrameSeal, DuplicatedTrailingCrcRejected) {
  // P‖C‖C: an extra copy of the CRC appended after a valid sealed frame.
  // The verifier must treat the first CRC as payload (and fail), never
  // resynchronize on an inner valid prefix.
  auto sealed = encode(Message(EliminationMsg{7, 11, 2, 0.9}));
  seal_frame(sealed);
  std::vector<std::byte> doubled = sealed;
  doubled.insert(doubled.end(), sealed.end() - 4, sealed.end());
  EXPECT_FALSE(try_open_frame(doubled).has_value());
  EXPECT_THROW(open_frame(doubled), std::runtime_error);
}

TEST(FrameSeal, EmptyFrameRejected) {
  EXPECT_THROW(open_frame({}), std::runtime_error);
  EXPECT_FALSE(try_open_frame({}).has_value());
}

TEST(FrameSeal, FourZeroBytesOpenToEmptyPayloadButDoNotDecode) {
  // crc32 of the empty payload is 0, so four zero bytes form a validly
  // sealed empty frame.  open_frame accepts it, but the message layer must
  // still reject the empty payload (no type byte).
  const std::vector<std::byte> zeros(4, std::byte{0});
  const auto payload = open_frame(zeros);
  EXPECT_TRUE(payload.empty());
  EXPECT_THROW(decode(payload), std::runtime_error);
}

}  // namespace
}  // namespace cmfl::net
