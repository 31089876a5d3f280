#include "fl/checkpoint.h"

#include <cstring>
#include <stdexcept>

#include "net/wire.h"  // header-only WireWriter/WireReader primitives
#include "util/durable_file.h"

namespace cmfl::fl {

namespace {

constexpr std::array<char, 4> kMagic = {'C', 'M', 'C', 'K'};
// v2: IterationRecord gained cumulative_upload_bytes + staleness fields,
// TrainerCheckpoint gained uploads_per_client and the scheduler section.
// v3: SchedInFlightReport gained wire_bytes (the encoded upload size an
// in-flight report will add on arrival), SchedulerCheckpoint gained the
// sparse per-device codec-state map.
// v4: SchedulerCheckpoint gained the sharded-aggregator ingest counters
// (shard_stats).
// v5: TrainerCheckpoint lost server_rng: FederatedSimulation runs on
// sched::RoundEngine and writes the engine's scheduler block.
// v6: ClusterMeterState lost the footprint curve, which a cluster run
// derives from the history.
constexpr std::uint32_t kVersion = 6;

void put_u64_vec(net::WireWriter& w, std::span<const std::uint64_t> v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) w.u64(x);
}

std::vector<std::uint64_t> get_u64_vec(net::WireReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("decode_checkpoint: u64 array exceeds payload");
  }
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.u64();
  return v;
}

void put_record(net::WireWriter& w, const IterationRecord& rec) {
  w.u64(rec.iteration);
  w.u64(rec.uploads);
  w.u64(rec.participants);
  w.u64(rec.rejected);
  w.u64(rec.cumulative_rounds);
  w.u64(rec.cumulative_upload_bytes);
  w.f64(rec.mean_score);
  w.f64(rec.mean_train_loss);
  w.f64(rec.delta_update);
  w.f64(rec.staleness_mean);
  w.u64(rec.staleness_max);
  w.f64(rec.accuracy);
  w.f64(rec.loss);
}

IterationRecord get_record(net::WireReader& r) {
  IterationRecord rec;
  rec.iteration = static_cast<std::size_t>(r.u64());
  rec.uploads = static_cast<std::size_t>(r.u64());
  rec.participants = static_cast<std::size_t>(r.u64());
  rec.rejected = static_cast<std::size_t>(r.u64());
  rec.cumulative_rounds = static_cast<std::size_t>(r.u64());
  rec.cumulative_upload_bytes = r.u64();
  rec.mean_score = r.f64();
  rec.mean_train_loss = r.f64();
  rec.delta_update = r.f64();
  rec.staleness_mean = r.f64();
  rec.staleness_max = static_cast<std::size_t>(r.u64());
  rec.accuracy = r.f64();
  rec.loss = r.f64();
  return rec;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::vector<std::byte> encode_checkpoint(const TrainerCheckpoint& ck) {
  net::WireWriter w;
  w.u64(ck.iteration);
  w.floats(ck.global_params);
  w.floats(ck.estimator_estimate);
  w.u8(ck.estimator_observed ? 1 : 0);
  w.floats(ck.prev_global_update);
  w.u64(ck.cumulative_rounds);
  w.u64(ck.uploaded_bytes);

  w.u64(ck.history.size());
  for (const auto& rec : ck.history) put_record(w, rec);
  put_u64_vec(w, ck.eliminations_per_client);
  put_u64_vec(w, ck.uploads_per_client);

  w.u64(ck.validation.rejected_nonfinite);
  w.u64(ck.validation.rejected_norm);
  w.u64(ck.validation.discarded_quarantined);
  w.u64(ck.validation.strikes.size());
  for (const std::uint32_t s : ck.validation.strikes) w.u32(s);
  w.u64(ck.validation.quarantined.size());
  for (const std::uint8_t q : ck.validation.quarantined) w.u8(q);

  w.u64(ck.client_state.size());
  for (const auto& blob : ck.client_state) put_u64_vec(w, blob);
  w.u64(ck.compressor_state.size());
  for (const auto& blob : ck.compressor_state) put_u64_vec(w, blob);

  const ClusterMeterState& m = ck.meters;
  w.u64(m.uplink_bytes);
  w.u64(m.uplink_messages);
  w.u64(m.uplink_retransmitted);
  w.u64(m.downlink_bytes);
  w.u64(m.downlink_messages);
  w.u64(m.downlink_retransmitted);
  w.u64(m.upload_messages);
  w.u64(m.elimination_messages);
  w.f64(m.simulated_transfer_seconds);

  const SchedulerCheckpoint& s = ck.sched;
  w.u8(s.engaged);
  w.u64(s.version);
  w.f64(s.virtual_now);
  w.u64(s.invite_counter);
  put_u64_vec(w, s.engine_rng);
  w.u64(s.in_flight.size());
  for (const auto& f : s.in_flight) {
    w.u64(f.device);
    w.u64(f.version);
    w.f64(f.arrival);
    w.u8(f.kind);
    w.f64(f.score);
    w.f64(f.train_loss);
    w.u64(f.local_samples);
    w.u64(f.wire_bytes);
    w.floats(f.update);
  }
  put_u64_vec(w, s.population_state);
  w.u64(s.invited);
  w.u64(s.reported);
  w.u64(s.unavailable_invited);
  w.u64(s.mid_round_dropouts);
  w.u64(s.discarded_stragglers);
  w.u64(s.stale_discarded);
  put_u64_vec(w, s.codec_devices);
  w.u64(s.codec_state.size());
  for (const auto& blob : s.codec_state) put_u64_vec(w, blob);
  put_u64_vec(w, s.shard_stats);
  return w.take();
}

TrainerCheckpoint decode_checkpoint(std::span<const std::byte> payload) {
  net::WireReader r(payload);
  TrainerCheckpoint ck;
  ck.iteration = r.u64();
  ck.global_params = r.floats();
  ck.estimator_estimate = r.floats();
  ck.estimator_observed = r.u8() != 0;
  ck.prev_global_update = r.floats();
  ck.cumulative_rounds = r.u64();
  ck.uploaded_bytes = r.u64();

  const std::uint64_t records = r.u64();
  if (records > r.remaining() / (5 * sizeof(std::uint64_t))) {
    throw std::runtime_error("decode_checkpoint: history exceeds payload");
  }
  ck.history.reserve(static_cast<std::size_t>(records));
  for (std::uint64_t i = 0; i < records; ++i) {
    ck.history.push_back(get_record(r));
  }
  ck.eliminations_per_client = get_u64_vec(r);
  ck.uploads_per_client = get_u64_vec(r);

  ck.validation.rejected_nonfinite = r.u64();
  ck.validation.rejected_norm = r.u64();
  ck.validation.discarded_quarantined = r.u64();
  const std::uint64_t strikes = r.u64();
  if (strikes > r.remaining() / sizeof(std::uint32_t)) {
    throw std::runtime_error("decode_checkpoint: strikes exceed payload");
  }
  ck.validation.strikes.resize(static_cast<std::size_t>(strikes));
  for (auto& s : ck.validation.strikes) s = r.u32();
  const std::uint64_t quarantined = r.u64();
  if (quarantined > r.remaining()) {
    throw std::runtime_error("decode_checkpoint: quarantine exceeds payload");
  }
  ck.validation.quarantined.resize(static_cast<std::size_t>(quarantined));
  for (auto& q : ck.validation.quarantined) q = r.u8();

  const std::uint64_t clients = r.u64();
  if (clients > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("decode_checkpoint: client states exceed payload");
  }
  ck.client_state.reserve(static_cast<std::size_t>(clients));
  for (std::uint64_t i = 0; i < clients; ++i) {
    ck.client_state.push_back(get_u64_vec(r));
  }
  const std::uint64_t compressors = r.u64();
  if (compressors > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error(
        "decode_checkpoint: compressor states exceed payload");
  }
  ck.compressor_state.reserve(static_cast<std::size_t>(compressors));
  for (std::uint64_t i = 0; i < compressors; ++i) {
    ck.compressor_state.push_back(get_u64_vec(r));
  }

  ClusterMeterState& m = ck.meters;
  m.uplink_bytes = r.u64();
  m.uplink_messages = r.u64();
  m.uplink_retransmitted = r.u64();
  m.downlink_bytes = r.u64();
  m.downlink_messages = r.u64();
  m.downlink_retransmitted = r.u64();
  m.upload_messages = r.u64();
  m.elimination_messages = r.u64();
  m.simulated_transfer_seconds = r.f64();

  SchedulerCheckpoint& s = ck.sched;
  s.engaged = r.u8();
  s.version = r.u64();
  s.virtual_now = r.f64();
  s.invite_counter = r.u64();
  s.engine_rng = get_u64_vec(r);
  const std::uint64_t in_flight = r.u64();
  if (in_flight > r.remaining() / (4 * sizeof(std::uint64_t))) {
    throw std::runtime_error("decode_checkpoint: in-flight exceeds payload");
  }
  s.in_flight.reserve(static_cast<std::size_t>(in_flight));
  for (std::uint64_t i = 0; i < in_flight; ++i) {
    SchedInFlightReport f;
    f.device = r.u64();
    f.version = r.u64();
    f.arrival = r.f64();
    f.kind = r.u8();
    f.score = r.f64();
    f.train_loss = r.f64();
    f.local_samples = r.u64();
    f.wire_bytes = r.u64();
    f.update = r.floats();
    s.in_flight.push_back(std::move(f));
  }
  s.population_state = get_u64_vec(r);
  s.invited = r.u64();
  s.reported = r.u64();
  s.unavailable_invited = r.u64();
  s.mid_round_dropouts = r.u64();
  s.discarded_stragglers = r.u64();
  s.stale_discarded = r.u64();
  s.codec_devices = get_u64_vec(r);
  const std::uint64_t codec_blobs = r.u64();
  if (codec_blobs > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("decode_checkpoint: codec states exceed payload");
  }
  if (codec_blobs != s.codec_devices.size()) {
    throw std::runtime_error(
        "decode_checkpoint: codec state/device count mismatch");
  }
  s.codec_state.reserve(static_cast<std::size_t>(codec_blobs));
  for (std::uint64_t i = 0; i < codec_blobs; ++i) {
    s.codec_state.push_back(get_u64_vec(r));
  }
  s.shard_stats = get_u64_vec(r);
  if (s.shard_stats.size() % 3 != 0) {
    throw std::runtime_error(
        "decode_checkpoint: shard stats not a multiple of 3 words");
  }
  if (!r.done()) {
    throw std::runtime_error("decode_checkpoint: trailing bytes in payload");
  }
  return ck;
}

void save_checkpoint_file(const std::string& path,
                          const TrainerCheckpoint& ck) {
  util::save_sealed_file(path, kMagic, kVersion, encode_checkpoint(ck));
}

TrainerCheckpoint load_checkpoint_file(const std::string& path) {
  return decode_checkpoint(util::load_sealed_file(path, kMagic, kVersion));
}

bool bitwise_equal(const IterationRecord& a, const IterationRecord& b) {
  return a.iteration == b.iteration && a.uploads == b.uploads &&
         a.participants == b.participants && a.rejected == b.rejected &&
         a.cumulative_rounds == b.cumulative_rounds &&
         a.cumulative_upload_bytes == b.cumulative_upload_bytes &&
         same_bits(a.mean_score, b.mean_score) &&
         same_bits(a.mean_train_loss, b.mean_train_loss) &&
         same_bits(a.delta_update, b.delta_update) &&
         same_bits(a.staleness_mean, b.staleness_mean) &&
         a.staleness_max == b.staleness_max &&
         same_bits(a.accuracy, b.accuracy) && same_bits(a.loss, b.loss);
}

}  // namespace cmfl::fl
