// The benchmark's own arithmetic, kept free of clocks and threads so it can
// be unit-tested: percentile selection, to-target extraction from a
// runtime's evaluation history, span-union and self-time accounting for one
// round, and the byte-reconciliation formulas of the correctness gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fl/simulation.h"

namespace perfbench {

/// Linear-interpolation percentile (numpy's default): p in [0, 100] over the
/// sorted values, interpolating between the two nearest ranks.  Returns 0
/// for an empty input.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(std::span<const double> values);

/// The first evaluation at or above the target accuracy, read off a
/// runtime's per-round history.  Mirrors the runtimes' own stop rule: an
/// evaluation with a non-finite loss never counts.
struct ToTarget {
  std::size_t rounds = 0;        ///< iteration index of that evaluation
  std::size_t uploads = 0;       ///< Φ: accumulated uploads (paper Eq. 4)
  std::uint64_t up_bytes = 0;    ///< cumulative uplink bytes
  std::size_t participants = 0;  ///< Σ participants over those rounds
};
std::optional<ToTarget> to_target(std::span<const cmfl::fl::IterationRecord> history,
                                  double target);

/// Half-open time interval in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Time accounting of one round window [begin, end): `covered` is the
/// length of the union of the spans clipped to the window, `self` the part
/// of the window no span covers, and `leaked` the span time that falls
/// outside the window (a span attributed to the wrong round).
struct RoundAccount {
  std::int64_t wall = 0;
  std::int64_t covered = 0;
  std::int64_t self = 0;
  std::int64_t leaked = 0;
};
RoundAccount account_round(std::vector<Interval> spans, Interval window);

/// A span of client-side work (install, train, relevance check,
/// materialization) and the thread it ran on.
struct ThreadSpan {
  std::uint32_t thread = 0;
  Interval time;
};

/// One round's client phase: it runs from its first span to its last, on as
/// many threads as ran any span; `capacity` is that interval times the
/// thread count and `busy` the span time within it.
struct Phase {
  std::int64_t busy = 0;
  std::int64_t capacity = 0;
};
Phase client_phase(std::span<const ThreadSpan> spans);

/// Share of a phase's thread capacity spent idle (waiting for stragglers);
/// 0 for an empty phase.
double idle_share(const Phase& phase);

// Byte reconciliation: what the runtime's counters must equal.

/// Uplink of a runtime that prices every upload at one fixed encoded size
/// (dense updates; sign payloads of a fixed dimension).
std::uint64_t uplink_fixed(std::uint64_t uploads, std::uint64_t bytes_per_upload);

/// Cluster uplink: full update frames plus elimination notices.
std::uint64_t cluster_uplink(std::uint64_t upload_frames, std::uint64_t upload_frame_bytes,
                             std::uint64_t elimination_frames,
                             std::uint64_t elimination_frame_bytes);

/// Broadcast downlink: every round sends one broadcast frame to each
/// receiver.
std::uint64_t broadcast_downlink(std::uint64_t rounds, std::uint64_t receivers,
                                 std::uint64_t broadcast_frame_bytes);

}  // namespace perfbench
