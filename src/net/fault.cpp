#include "net/fault.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/durable_file.h"

namespace cmfl::net {

void LinkFaults::validate(const char* what) const {
  const auto check = [&](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(std::string(what) + "." + name +
                                  " must lie in [0, 1]");
    }
  };
  check(drop_prob, "drop_prob");
  check(corrupt_prob, "corrupt_prob");
  check(duplicate_prob, "duplicate_prob");
}

bool FaultPlan::enabled() const noexcept {
  if (downlink.any() || uplink.any()) return true;
  for (const auto& [_, f] : downlink_overrides) {
    if (f.any()) return true;
  }
  for (const auto& [_, f] : uplink_overrides) {
    if (f.any()) return true;
  }
  for (const auto& [_, d] : straggler_delay_s) {
    if (d > 0.0) return true;
  }
  return !crash_at_iteration.empty() || !leader_crash.empty() ||
         !replica_restart.empty() || !replica_partition.empty();
}

LinkFaults FaultPlan::downlink_for(std::size_t worker) const {
  const auto it = downlink_overrides.find(worker);
  return it != downlink_overrides.end() ? it->second : downlink;
}

LinkFaults FaultPlan::uplink_for(std::size_t worker) const {
  const auto it = uplink_overrides.find(worker);
  return it != uplink_overrides.end() ? it->second : uplink;
}

double FaultPlan::straggler_delay_for(std::size_t worker) const noexcept {
  const auto it = straggler_delay_s.find(worker);
  return it != straggler_delay_s.end() ? it->second : 0.0;
}

std::optional<std::uint64_t> FaultPlan::crash_iteration_for(
    std::size_t worker) const noexcept {
  const auto it = crash_at_iteration.find(worker);
  if (it == crash_at_iteration.end()) return std::nullopt;
  return it->second;
}

util::Rng FaultPlan::link_rng(std::size_t worker,
                              bool is_uplink) const noexcept {
  util::Rng base(seed);
  return base.split(worker * 2 + (is_uplink ? 1 : 0));
}

util::Rng FaultPlan::replica_link_rng(std::uint32_t replica,
                                      std::size_t worker,
                                      bool is_uplink) const noexcept {
  // Salted into a range link_rng can never produce (it uses 2w + dir).
  util::Rng base(seed ^ 0x5ca1ab1e0000ULL);
  return base.split((static_cast<std::uint64_t>(replica) << 32) ^
                    (worker * 2 + (is_uplink ? 1 : 0)));
}

void FaultPlan::validate(std::size_t num_workers) const {
  downlink.validate("FaultPlan.downlink");
  uplink.validate("FaultPlan.uplink");
  for (const auto& [k, f] : downlink_overrides) {
    f.validate("FaultPlan.downlink_overrides");
    if (k >= num_workers) {
      throw std::invalid_argument("FaultPlan: downlink override for worker " +
                                  std::to_string(k) + " out of range");
    }
  }
  for (const auto& [k, f] : uplink_overrides) {
    f.validate("FaultPlan.uplink_overrides");
    if (k >= num_workers) {
      throw std::invalid_argument("FaultPlan: uplink override for worker " +
                                  std::to_string(k) + " out of range");
    }
  }
  for (const auto& [k, d] : straggler_delay_s) {
    if (!std::isfinite(d) || d < 0.0) {
      throw std::invalid_argument(
          "FaultPlan: straggler delay must be finite and >= 0");
    }
    if (k >= num_workers) {
      throw std::invalid_argument("FaultPlan: straggler delay for worker " +
                                  std::to_string(k) + " out of range");
    }
  }
  for (const auto& [k, _] : crash_at_iteration) {
    if (k >= num_workers) {
      throw std::invalid_argument("FaultPlan: crash schedule for worker " +
                                  std::to_string(k) + " out of range");
    }
  }
  for (const LeaderCrash& c : leader_crash) {
    if (c.round == 0) {
      throw std::invalid_argument(
          "FaultPlan: leader_crash round is 1-based (round 0 never runs)");
    }
  }
  for (const ReplicaRestart& r : replica_restart) {
    if (r.round == 0) {
      throw std::invalid_argument(
          "FaultPlan: replica_restart round is 1-based (round 0 never runs)");
    }
    if (!std::isfinite(r.restart_after_ms) || r.restart_after_ms < 0.0) {
      throw std::invalid_argument(
          "FaultPlan: replica_restart.restart_after_ms must be finite and "
          ">= 0");
    }
  }
  for (const auto& [r, window] : replica_partition) {
    if (window.from_round == 0 || window.to_round < window.from_round) {
      throw std::invalid_argument(
          "FaultPlan: replica_partition window must satisfy 1 <= from <= to");
    }
    (void)r;  // replica-count bound is checked by the replicated master
  }
}

std::optional<StorageFaultInjector::Action> StorageFaultInjector::apply(
    StorageFault fault, const std::string& path) {
  if (fault == StorageFault::kNone) return std::nullopt;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return std::nullopt;
  const auto spans = util::DurableFile::record_spans(path);

  Action a;
  a.fault = fault;
  a.old_size = size;
  a.new_size = size;

  const auto truncate_to = [&](std::uint64_t new_size) {
    std::filesystem::resize_file(path, new_size, ec);
    if (ec) {
      throw std::runtime_error("StorageFaultInjector: cannot truncate " +
                               path);
    }
    a.offset = new_size;
    a.new_size = new_size;
  };

  switch (fault) {
    case StorageFault::kTornFinalWrite: {
      // Cut strictly inside the last record's bytes — what a crash between
      // write() and fsync() leaves behind.
      if (spans.empty()) return std::nullopt;
      const auto [off, len] = spans.back();
      truncate_to(off + 1 + rng_.uniform_index(len - 1));
      break;
    }
    case StorageFault::kBitFlip: {
      // Flip one bit inside a seeded record (silent media corruption); the
      // CRC on the real read path must catch it.
      if (spans.empty()) return std::nullopt;
      const auto [off, len] = spans[rng_.uniform_index(spans.size())];
      a.offset = off + rng_.uniform_index(len);
      a.bit = static_cast<unsigned>(rng_.uniform_index(8));
      std::fstream f(path,
                     std::ios::in | std::ios::out | std::ios::binary);
      if (!f) {
        throw std::runtime_error("StorageFaultInjector: cannot open " + path);
      }
      f.seekg(static_cast<std::streamoff>(a.offset));
      char c = 0;
      f.get(c);
      c = static_cast<char>(c ^ static_cast<char>(1u << a.bit));
      f.seekp(static_cast<std::streamoff>(a.offset));
      f.put(c);
      if (!f) {
        throw std::runtime_error("StorageFaultInjector: flip failed in " +
                                 path);
      }
      break;
    }
    case StorageFault::kTruncate:
      // Arbitrary cut — may land mid-record, mid-header, or at zero.
      truncate_to(rng_.uniform_index(size));
      break;
    case StorageFault::kFsyncDroppedTail: {
      // 1..3 whole records vanish from the end: appends that were written
      // but whose fsync never reached the platter.
      if (spans.empty()) return std::nullopt;
      const std::size_t drop =
          1 + rng_.uniform_index(std::min<std::size_t>(3, spans.size()));
      truncate_to(spans[spans.size() - drop].first);
      break;
    }
    case StorageFault::kNone:
      return std::nullopt;
  }
  return a;
}

bool FaultyChannel::send(std::vector<std::byte> frame) {
  if (faults_.drop_prob > 0.0 && rng_.bernoulli(faults_.drop_prob)) {
    stats_->frames_dropped.fetch_add(1, std::memory_order_relaxed);
    return true;  // vanished in transit; the sender cannot tell
  }
  if (faults_.corrupt_prob > 0.0 && !frame.empty() &&
      rng_.bernoulli(faults_.corrupt_prob)) {
    const std::size_t pos = rng_.uniform_index(frame.size());
    const auto bit = static_cast<unsigned>(rng_.uniform_index(8));
    frame[pos] ^= static_cast<std::byte>(1u << bit);
    stats_->frames_corrupted.fetch_add(1, std::memory_order_relaxed);
  }
  if (faults_.duplicate_prob > 0.0 && rng_.bernoulli(faults_.duplicate_prob)) {
    stats_->frames_duplicated.fetch_add(1, std::memory_order_relaxed);
    // Both copies must enqueue atomically: a receiver that drains its inbox
    // after seeing the first copy would otherwise miss the second depending
    // on scheduling, making discard counters non-reproducible.
    std::vector<std::vector<std::byte>> copies;
    copies.push_back(frame);
    copies.push_back(std::move(frame));
    return inner_->send_many(std::move(copies));
  }
  return inner_->send(std::move(frame));
}

}  // namespace cmfl::net
