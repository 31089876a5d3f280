#include "net/wire.h"

#include "util/crc32.h"

namespace cmfl::net {

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return util::crc32(data);
}

void seal_frame(std::vector<std::byte>& frame) {
  const std::uint32_t crc = crc32(frame);
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<std::byte>((crc >> shift) & 0xFFu));
  }
}

std::optional<std::span<const std::byte>> try_open_frame(
    std::span<const std::byte> frame) noexcept {
  if (frame.size() < kSealBytes) return std::nullopt;
  const auto payload = frame.first(frame.size() - kSealBytes);
  std::uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) |
             static_cast<std::uint8_t>(frame[payload.size() +
                                             static_cast<std::size_t>(i)]);
  }
  if (crc32(payload) != stored) return std::nullopt;
  return payload;
}

std::span<const std::byte> open_frame(std::span<const std::byte> frame) {
  if (frame.size() < kSealBytes) {
    throw std::runtime_error("open_frame: frame shorter than its CRC");
  }
  if (const auto payload = try_open_frame(frame)) return *payload;
  throw std::runtime_error("open_frame: CRC mismatch (corrupted frame)");
}

}  // namespace cmfl::net
