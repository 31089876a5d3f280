#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<ToTarget> to_target(std::span<const cmfl::fl::IterationRecord> history,
                                  double target) {
  std::size_t participants = 0;
  for (const auto& rec : history) {
    participants += rec.participants;
    if (rec.evaluated() && std::isfinite(rec.loss) && rec.accuracy >= target) {
      return ToTarget{rec.iteration, rec.cumulative_rounds, rec.cumulative_upload_bytes,
                      participants};
    }
  }
  return std::nullopt;
}

RoundAccount account_round(std::vector<Interval> spans, Interval window) {
  RoundAccount acc;
  acc.wall = std::max<std::int64_t>(0, window.end - window.begin);
  std::vector<Interval> clipped;
  clipped.reserve(spans.size());
  for (const Interval& s : spans) {
    const std::int64_t b = std::max(s.begin, window.begin);
    const std::int64_t e = std::min(s.end, window.end);
    const std::int64_t inside = std::max<std::int64_t>(0, e - b);
    acc.leaked += std::max<std::int64_t>(0, s.end - s.begin) - inside;
    if (inside > 0) clipped.push_back({b, e});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  // Walk the window once: each merged run of spans adds to `covered`, each
  // gap between runs (and before the first / after the last) to `self`.
  std::int64_t cursor = window.begin;
  for (const Interval& s : clipped) {
    if (s.begin > cursor) {
      acc.self += s.begin - cursor;
      cursor = s.begin;
    }
    if (s.end > cursor) {
      acc.covered += s.end - cursor;
      cursor = s.end;
    }
  }
  if (window.end > cursor) acc.self += window.end - cursor;
  return acc;
}

Phase client_phase(std::span<const ThreadSpan> spans) {
  Phase phase;
  if (spans.empty()) return phase;
  std::int64_t lo = spans.front().time.begin;
  std::int64_t hi = spans.front().time.end;
  std::set<std::uint32_t> threads;
  for (const ThreadSpan& s : spans) {
    lo = std::min(lo, s.time.begin);
    hi = std::max(hi, s.time.end);
    phase.busy += s.time.end - s.time.begin;
    threads.insert(s.thread);
  }
  phase.capacity = (hi - lo) * static_cast<std::int64_t>(threads.size());
  return phase;
}

double idle_share(const Phase& phase) {
  if (phase.capacity <= 0) return 0.0;
  return std::clamp(1.0 - static_cast<double>(phase.busy) / static_cast<double>(phase.capacity),
                    0.0, 1.0);
}

std::uint64_t uplink_fixed(std::uint64_t uploads, std::uint64_t bytes_per_upload) {
  return uploads * bytes_per_upload;
}

std::uint64_t cluster_uplink(std::uint64_t upload_frames, std::uint64_t upload_frame_bytes,
                             std::uint64_t elimination_frames,
                             std::uint64_t elimination_frame_bytes) {
  return upload_frames * upload_frame_bytes + elimination_frames * elimination_frame_bytes;
}

std::uint64_t broadcast_downlink(std::uint64_t rounds, std::uint64_t receivers,
                                 std::uint64_t broadcast_frame_bytes) {
  return rounds * receivers * broadcast_frame_bytes;
}

}  // namespace perfbench
