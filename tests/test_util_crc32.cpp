// The dispatched CRC-32 (the carry-less-multiply fold where the CPU has it)
// against the byte-at-a-time table loop it replaces.  Each buffer is
// allocated at exactly its offset plus length, so under AddressSanitizer a
// 16-byte load past the end of the data lands in the allocation's redzone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"

namespace cmfl::util {
namespace {

/// `offset` filler bytes followed by `length` bytes of a fixed random
/// pattern, in an allocation that ends where the data ends.
std::vector<std::byte> buffer_at(const std::vector<std::byte>& pattern,
                                 std::size_t offset, std::size_t length) {
  std::vector<std::byte> buf(offset + length, std::byte{0xA5});
  std::copy_n(pattern.begin(), length, buf.begin() + offset);
  return buf;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xFFu);
  return v;
}

TEST(Crc32Fold, MatchesTheTableForEveryLengthAndOffset) {
  const std::vector<std::byte> pattern = random_bytes(1024, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const auto buf = buffer_at(pattern, offset, length);
      const auto data = std::span<const std::byte>(buf).subspan(offset);
      ASSERT_EQ(crc32(data), crc32_ref(data))
          << "length " << length << " at offset " << offset;
    }
  }
}

TEST(Crc32Fold, MatchesTheTableOnRandomBuffersUpToOneMiB) {
  constexpr std::size_t kMax = (std::size_t{1} << 20) + 15;
  const std::vector<std::byte> pattern = random_bytes(kMax, 2);
  Rng rng(3);
  std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, kMax}, {15, kMax - 15}, {7, std::size_t{1} << 20}};
  for (int i = 0; i < 40; ++i) {
    const std::size_t offset = rng.uniform_index(16);
    cases.emplace_back(offset, rng.uniform_index(kMax - offset + 1));
  }
  for (const auto& [offset, length] : cases) {
    const auto buf = buffer_at(pattern, offset, length);
    const auto data = std::span<const std::byte>(buf).subspan(offset);
    ASSERT_EQ(crc32(data), crc32_ref(data))
        << "length " << length << " at offset " << offset;
  }
}

}  // namespace
}  // namespace cmfl::util
