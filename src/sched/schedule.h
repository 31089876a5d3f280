// Scheduling policy knobs for the device-population round runtime.
//
// This header is pure data — enums and an options struct with no
// dependencies beyond the standard library — so fl/simulation.h can embed a
// ScheduleOptions in SimulationOptions without including the engine.  The
// machinery that interprets these options (sched::Population,
// sched::RoundEngine) builds into the cmfl_fl library, since
// fl::FederatedSimulation runs on the engine.  See DESIGN.md §11.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace cmfl::sched {

/// How a round commits.
enum class RoundMode {
  /// Classic synchronous FL (the paper's Algorithm 1): every invited and
  /// available device trains and reports before the round commits.
  kSync,
  /// Production-style over-selection: invite more devices than needed,
  /// commit on the first `target_reports` reporters (optionally bounded by
  /// a virtual deadline), and discard the stragglers' late reports.
  kOverSelect,
  /// FedBuff-style buffered asynchrony: devices report whenever they
  /// finish; the server aggregates once `async_buffer` uploads are
  /// buffered, applying staleness-discounted weights.
  kBufferedAsync,
};

/// How the per-round cohort is drawn from the population.
enum class Selection {
  /// Sample uniformly over *all* devices.  Invitations to devices that are
  /// currently unavailable are wasted (they never report) — the naive
  /// baseline a production scheduler improves on.
  kUniform,
  /// Sample uniformly over the devices available this round (the "check-in
  /// pool" model of production FL systems).
  kAvailabilityAware,
};

struct ScheduleOptions {
  RoundMode mode = RoundMode::kSync;
  Selection selection = Selection::kUniform;

  /// Devices invited per round (kSync / kOverSelect) or kept in flight
  /// concurrently (kBufferedAsync).  0 = every device (kSync only; the
  /// other modes need an explicit cohort size).
  ///
  /// fl::FederatedSimulation fills it from SimulationOptions::participation
  /// when it is 0, and runs a value ≥ its client count at full
  /// participation.
  std::size_t sample_size = 0;

  /// kOverSelect: commit the round once this many reports arrived; the
  /// remaining invited devices are stragglers whose reports are discarded.
  /// 0 derives K = ceil(sample_size / over_select_factor).
  std::size_t target_reports = 0;

  /// kOverSelect with target_reports == 0: invite sample_size devices and
  /// keep sample_size / over_select_factor of them.
  double over_select_factor = 1.3;

  /// kOverSelect: virtual per-round deadline in seconds; reports arriving
  /// later are discarded even if fewer than target_reports arrived in time
  /// (0 = no deadline, the first-K rule alone decides).
  double round_deadline_s = 0.0;

  /// kBufferedAsync: aggregate once this many uploads are buffered
  /// (FedBuff's K).
  std::size_t async_buffer = 10;

  /// kBufferedAsync: discard uploads whose staleness (model versions the
  /// server advanced between invitation and arrival) exceeds this
  /// (0 = keep all).
  std::size_t max_staleness = 0;

  /// kBufferedAsync: a buffered update invited at version v and aggregated
  /// at version V is weighted by (1 + V - v)^-staleness_exponent.
  double staleness_exponent = 0.5;

  /// Throws std::invalid_argument on an inconsistent combination.
  void validate() const {
    if (mode != RoundMode::kSync && sample_size == 0) {
      throw std::invalid_argument(
          "ScheduleOptions: over-selection and buffered-async modes need an "
          "explicit sample_size");
    }
    if (!(std::isfinite(over_select_factor) && over_select_factor >= 1.0)) {
      throw std::invalid_argument(
          "ScheduleOptions: over_select_factor must be finite and >= 1");
    }
    if (mode == RoundMode::kOverSelect && target_reports > sample_size) {
      throw std::invalid_argument(
          "ScheduleOptions: target_reports exceeds sample_size");
    }
    if (mode == RoundMode::kBufferedAsync && async_buffer == 0) {
      throw std::invalid_argument(
          "ScheduleOptions: async_buffer must be positive");
    }
    if (mode == RoundMode::kBufferedAsync && async_buffer > sample_size) {
      throw std::invalid_argument(
          "ScheduleOptions: async_buffer exceeds the in-flight sample_size "
          "(the buffer could never fill)");
    }
    if (!(std::isfinite(round_deadline_s) && round_deadline_s >= 0.0) ||
        !(std::isfinite(staleness_exponent) && staleness_exponent >= 0.0)) {
      throw std::invalid_argument(
          "ScheduleOptions: deadline and staleness exponent must be finite "
          "and >= 0");
    }
  }

  /// The over-selection keep count K this configuration resolves to.
  std::size_t resolved_target_reports() const {
    if (target_reports > 0) return target_reports;
    const auto k = static_cast<std::size_t>(
        static_cast<double>(sample_size) / over_select_factor);
    return k > 0 ? k : 1;
  }
};

inline std::string round_mode_name(RoundMode mode) {
  switch (mode) {
    case RoundMode::kSync: return "sync";
    case RoundMode::kOverSelect: return "overselect";
    case RoundMode::kBufferedAsync: return "async";
  }
  return "unknown";
}

inline RoundMode parse_round_mode(const std::string& name) {
  if (name == "sync") return RoundMode::kSync;
  if (name == "overselect") return RoundMode::kOverSelect;
  if (name == "async") return RoundMode::kBufferedAsync;
  throw std::invalid_argument("parse_round_mode: unknown mode '" + name +
                              "' (sync | overselect | async)");
}

inline Selection parse_selection(const std::string& name) {
  if (name == "uniform") return Selection::kUniform;
  if (name == "available") return Selection::kAvailabilityAware;
  throw std::invalid_argument("parse_selection: unknown policy '" + name +
                              "' (uniform | available)");
}

}  // namespace cmfl::sched
