// Crash-consistent full-state checkpointing of a federated run.
//
// A TrainerCheckpoint captures *everything* the training loop needs to
// continue as if it had never stopped: global model parameters, the
// estimator feedback loop (ū and its observed flag), the previous global
// update (ΔUpdate bookkeeping), progress counters, the full per-iteration
// history recorded so far, validation/quarantine state, the per-shard
// ingest counters, every client's stochastic state (batch-shuffle / noise /
// attack RNGs) and codec state (quantization RNG streams, error-feedback
// residuals, codebook caches) as one id-keyed util::StateMap each, and — for
// cluster runs — the ByteMeter/message counters and simulated transfer time
// (the footprint derives from the history).  The threshold and
// learning-rate schedules are pure functions of the iteration index, so
// saving `iteration` captures their state exactly.
//
// The tested invariant (see tests/test_fl_checkpoint.cpp): checkpoint at
// iteration k, destroy the trainer, rebuild the workload from its spec,
// resume — the final parameters and every recorded metric are bit-identical
// to the uninterrupted run.
//
// On disk a checkpoint is a sealed file (util/durable_file.h): magic "CMCK",
// versioned, length-prefixed, CRC-32-protected, written atomically via
// rename so a crash mid-write never corrupts the previous checkpoint.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fl/robust_agg.h"
#include "fl/simulation.h"
#include "util/rng.h"

namespace cmfl::net {
class WireReader;
class WireWriter;
}  // namespace cmfl::net

namespace cmfl::fl {

/// Cluster-side accounting state (all zero for in-process runs).
/// Fault-injection counters are deliberately excluded: the injected fault
/// streams restart on resume, so those counters describe a process
/// lifetime, not the logical run.
struct ClusterMeterState {
  std::uint64_t uplink_bytes = 0;
  std::uint64_t uplink_messages = 0;
  std::uint64_t uplink_retransmitted = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t downlink_messages = 0;
  std::uint64_t downlink_retransmitted = 0;
  double simulated_transfer_seconds = 0.0;

  bool operator==(const ClusterMeterState&) const = default;
};

/// One report still in flight inside sched::RoundEngine's buffered-async
/// loop: the device trained on model version `version`, its (already
/// computed) answer arrives at virtual time `arrival`.
struct SchedInFlightReport {
  std::uint64_t device = 0;
  std::uint64_t version = 0;
  double arrival = 0.0;
  /// 0 = elimination, 1 = upload, 2 = dropped mid-round.
  std::uint8_t kind = 0;
  double score = 0.0;
  double train_loss = 0.0;
  std::uint64_t local_samples = 0;
  /// Encoded wire size this report adds to the uplink on arrival (kind == 1
  /// only).  The stored `update` is the *decoded* reconstruction — encoding
  /// happens once, when the report enters flight, so codec state never
  /// advances twice for one upload.
  std::uint64_t wire_bytes = 0;
  std::vector<float> update;  // kind == 1 only

  bool operator==(const SchedInFlightReport&) const = default;
};

/// Everything sched::RoundEngine needs beyond the common trainer state:
/// the engine RNG and virtual clock, the in-flight report queue of a
/// buffered-async run, and the schedule counters the final report
/// accumulates.  `engaged == 1` for every in-process checkpoint — the
/// engine's and FederatedSimulation's, which runs on the engine — and 0 for
/// cluster checkpoints (all fields then empty).
struct SchedulerCheckpoint {
  std::uint8_t engaged = 0;
  std::uint64_t version = 0;        // async: aggregations applied so far
  double virtual_now = 0.0;         // async: virtual clock at the snapshot
  std::uint64_t invite_counter = 0;
  std::vector<std::uint64_t> engine_rng;
  std::vector<SchedInFlightReport> in_flight;
  // ScheduleReport counters (materializations/peak-resident are process-
  // lifetime observations and deliberately excluded).
  std::uint64_t invited = 0;
  std::uint64_t reported = 0;
  std::uint64_t unavailable_invited = 0;
  std::uint64_t mid_round_dropouts = 0;
  std::uint64_t discarded_stragglers = 0;
  std::uint64_t stale_discarded = 0;

  bool operator==(const SchedulerCheckpoint&) const = default;
};

struct TrainerCheckpoint {
  /// Last completed iteration t; a resumed run continues at t+1.
  std::uint64_t iteration = 0;

  // Model and the CMFL feedback loop.
  std::vector<float> global_params;
  std::vector<float> estimator_estimate;
  bool estimator_observed = false;
  std::vector<float> prev_global_update;

  // Progress accounting.
  std::uint64_t cumulative_rounds = 0;
  std::uint64_t uploaded_bytes = 0;
  std::vector<IterationRecord> history;
  std::vector<std::uint64_t> eliminations_per_client;
  std::vector<std::uint64_t> uploads_per_client;

  // Validation counters and quarantine state.
  ValidationReport validation;

  /// Sharded-aggregator ingest counters ([uploads, range_passes, bytes] per
  /// shard — fl::ShardedAggregator::stats_words).  The shard count is
  /// implied (words / 3) and must match the resumed run's.
  std::vector<std::uint64_t> shard_stats;

  /// Every runtime, read at quiesced checkpoint points: each client's
  /// FlClient::mutable_state (the engine's sparse device map, or one entry
  /// per cluster worker) and each made codec's state
  /// (codec::CodecPlane::states; none when dense), by client id.
  util::StateMap client_state;
  util::StateMap codec_state;

  // Cluster byte/message accounting.
  ClusterMeterState meters;

  // Device-population scheduler state (sched::RoundEngine runs only).
  SchedulerCheckpoint sched;
};

/// The one encoding of per-client words (TrainerCheckpoint::client_state
/// and codec_state, and the replicated master's ClientStates command): a
/// u64 count, then per entry the u64 id, a u64 word count and the words.
/// The reader bounds every count by the bytes left and throws
/// std::runtime_error on a count that overruns or on ids that are not
/// strictly increasing.
void write_state_map(net::WireWriter& w, const util::StateMap& states);
util::StateMap read_state_map(net::WireReader& r);

/// Serializes to / parses from the sealed-blob payload encoding.
/// load throws std::runtime_error on a malformed payload.
std::vector<std::byte> encode_checkpoint(const TrainerCheckpoint& ck);
TrainerCheckpoint decode_checkpoint(std::span<const std::byte> payload);

/// Atomic, CRC-sealed file forms (util::save_sealed_file / load_sealed_file).
void save_checkpoint_file(const std::string& path,
                          const TrainerCheckpoint& ck);
TrainerCheckpoint load_checkpoint_file(const std::string& path);

/// Bit-exact record equality: NaN accuracy/loss fields (un-evaluated
/// iterations) compare equal when both sides hold the same bit pattern —
/// what the resume invariant tests need, and what operator== on doubles
/// cannot express.
bool bitwise_equal(const IterationRecord& a, const IterationRecord& b);

}  // namespace cmfl::fl
