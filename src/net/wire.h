// Byte-exact wire encoding.
//
// The EC2 emulation measures *network footprint in bytes*, so messages are
// serialized into real byte buffers (little-endian, length-prefixed) rather
// than passed as in-memory objects.  WireWriter/WireReader are the
// primitives; message.h defines the FL protocol frames on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmfl::net {

/// CRC-32 (IEEE 802.3, reflected) over a byte range — frame integrity for
/// the cluster protocol.  util::crc32: a carry-less-multiply fold on CPUs
/// with PCLMULQDQ, the table loop elsewhere, the same checksum either way.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// Bytes seal_frame appends.
inline constexpr std::size_t kSealBytes = 4;

/// Appends a 4-byte CRC over `frame` (call after encode(), which reserves
/// room for it).
void seal_frame(std::vector<std::byte>& frame);

/// Verifies and strips the trailing CRC; throws std::runtime_error on
/// mismatch or an undersized frame.
std::span<const std::byte> open_frame(std::span<const std::byte> frame);

/// Non-throwing open_frame for paths where a corrupted frame is an expected
/// event to recover from (the fault-tolerant cluster protocol), not a bug:
/// returns std::nullopt on an undersized frame or CRC mismatch.
std::optional<std::span<const std::byte>> try_open_frame(
    std::span<const std::byte> frame) noexcept;

class WireWriter {
 public:
  WireWriter() = default;
  /// Reserves `capacity` bytes up front: a frame written to a capacity
  /// sized by WireSizer (plus its seal) never reallocates.
  explicit WireWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f32(float v) { append(&v, sizeof(v)); }
  void f64(double v) { append(&v, sizeof(v)); }

  void floats(std::span<const float> v) {
    u64(v.size());
    append(v.data(), v.size() * sizeof(float));
  }

  /// Length-prefixed opaque byte blob (codec payloads).
  void bytes(std::span<const std::byte> v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<std::byte> buf_;
};

/// Counts the bytes a WireWriter writes for the same calls, so a frame can
/// be sized before it is written.
class WireSizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void f32(float) { n_ += 4; }
  void f64(double) { n_ += 8; }
  void floats(std::span<const float> v) { n_ += 8 + v.size() * sizeof(float); }
  void bytes(std::span<const std::byte> v) { n_ += 8 + v.size(); }

  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Throws std::runtime_error on any attempt to read past the end — a
/// truncated or corrupted frame must never be silently accepted.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t u64() { return read_pod<std::uint64_t>(); }
  float f32() { return read_pod<float>(); }
  double f64() { return read_pod<double>(); }

  std::vector<float> floats() {
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(float)) {
      throw std::runtime_error("WireReader: float array length " +
                               std::to_string(n) + " exceeds frame");
    }
    std::vector<float> out(n);
    auto bytes = take(n * sizeof(float));
    // An empty vector's data() may be null, which memcpy must not receive.
    if (n > 0) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  std::vector<std::byte> bytes() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      throw std::runtime_error("WireReader: byte blob length " +
                               std::to_string(n) + " exceeds frame");
    }
    auto span = take(static_cast<std::size_t>(n));
    return std::vector<std::byte>(span.begin(), span.end());
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T read_pod() {
    T v{};
    auto bytes = take(sizeof(T));
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  std::span<const std::byte> take(std::size_t n) {
    if (n > remaining()) {
      throw std::runtime_error("WireReader: truncated frame");
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace cmfl::net
