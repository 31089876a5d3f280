// CRC-32 (IEEE 802.3, reflected) over a byte range.
//
// One implementation shared by the two integrity layers in the repo: the
// net wire protocol (frame seals, net/wire.h) and the crash-consistent
// trainer checkpoints (fl/checkpoint.h).  A runtime-dispatched kernel
// (DESIGN.md §13): on x86-64 CPUs with PCLMULQDQ and SSE4.1 it folds the
// input 64 bytes at a time with carry-less multiplies, elsewhere it runs the
// byte-at-a-time table loop.  Both compute the same polynomial remainder,
// so they return the same value on every input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cmfl::util {

std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// The table loop alone: the reference the folded path is tested against,
/// and the only path on CPUs without PCLMULQDQ.
std::uint32_t crc32_ref(std::span<const std::byte> data) noexcept;

}  // namespace cmfl::util
