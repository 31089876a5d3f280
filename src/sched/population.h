// A seeded population of virtual devices with availability churn and lazy
// client materialization.
//
// The paper trains 30–142 always-on clients; a production deployment serves
// six-figure device populations where most devices are offline at any
// moment and a sampled cohort is all the server ever talks to.  Population
// models exactly that regime while staying bit-deterministic:
//
//   * Per-device traits (speed factor, on/off duty cycle, per-round
//     availability, mid-round dropout) are *stateless* functions of
//     (seed, device id, round) — hashing, not stored state — so a 100k
//     population costs no per-device memory until a device is touched.
//   * Clients are materialized on demand through a ClientFactory and
//     released after use.  A bounded LRU pool keeps recently used clients
//     warm; evicted clients persist only their mutable_state() words (a few
//     u64s), so peak resident client state is proportional to the per-round
//     cohort, not the population.
//   * Everything observable is reproducible from PopulationSpec::seed; the
//     sparse device-state map plus the caller's RNG is all a checkpoint
//     needs (states()/restore_states()).
//
// The factory must be deterministic: client(id) must construct an identical
// client (same shard, same initial weights, same RNG seed) every time it is
// called — Population restores the saved mutable state on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "fl/client.h"
#include "sched/schedule.h"
#include "util/rng.h"

namespace cmfl::sched {

using ClientFactory =
    std::function<std::unique_ptr<fl::FlClient>(std::uint64_t device_id)>;

struct PopulationSpec {
  /// Virtual device count (may be far larger than ever materialized).
  std::uint64_t devices = 0;

  // --- Availability churn ---
  /// Expected fraction of rounds a device is available.  1.0 = always on.
  double mean_on_fraction = 1.0;
  /// > 0: each device follows a deterministic on/off duty cycle of roughly
  /// this many rounds per period (device-specific period and phase), being
  /// on for mean_on_fraction of it.  0: availability is an independent
  /// per-(device, round) draw with probability mean_on_fraction.
  double duty_period_rounds = 0.0;
  /// Probability that a selected device drops mid-round: it trains (the
  /// energy is spent) but never reports.
  double dropout_mid_round = 0.0;

  // --- Virtual latency model (drives deadlines and async arrival order) ---
  /// Median round latency (download + train + upload) of a unit-speed
  /// device, in virtual seconds.
  double latency_base_s = 1.0;
  /// Log-normal spread of the static per-device speed factor.
  double latency_log_sigma = 0.5;
  /// Log-normal per-invitation jitter on top of the device speed.
  double latency_jitter = 0.2;

  /// Released clients kept warm before eviction (0 = evict on release;
  /// peak resident then equals the largest simultaneously-acquired cohort).
  std::size_t max_resident = 0;

  std::uint64_t seed = 2024;

  void validate() const;
};

class Population {
 public:
  /// Throws std::invalid_argument on an empty population, a null factory,
  /// or out-of-range spec knobs.
  Population(const PopulationSpec& spec, ClientFactory factory);

  std::uint64_t size() const noexcept { return spec_.devices; }
  const PopulationSpec& spec() const noexcept { return spec_; }

  // --- Stateless, seeded device traits ---
  bool available(std::uint64_t device, std::uint64_t round) const;
  bool drops_mid_round(std::uint64_t device, std::uint64_t round) const;
  /// Static per-device speed multiplier (log-normal around 1).
  double speed_factor(std::uint64_t device) const;
  /// Virtual seconds between inviting `device` and its report arriving;
  /// `invite_seq` individualizes the jitter per invitation.
  double draw_latency(std::uint64_t device, std::uint64_t invite_seq) const;

  // --- Cohort sampling ---
  /// Samples up to `count` distinct device ids for `round` (sorted
  /// ascending), drawing from `rng`.  kUniform draws over all devices —
  /// including currently unavailable ones; kAvailabilityAware only over
  /// devices with available(id, round).  Devices for which `excluded`
  /// returns true (already in flight, quarantined) are never picked.
  std::vector<std::uint64_t> sample(
      std::uint64_t round, std::size_t count, Selection selection,
      util::Rng& rng,
      const std::function<bool(std::uint64_t)>& excluded = nullptr) const;

  // --- Lazy client materialization ---
  //
  // Thread safety: acquire / release / trim_warm may be called from
  // concurrent worker threads (the work-stealing training pool).  The
  // factory runs *outside* the pool lock — a placeholder reserves the slot
  // first — so materialization of different devices overlaps while the
  // bookkeeping stays serialized.  Determinism: eviction order is governed
  // by caller-supplied logical sequence numbers, not wall-clock release
  // order, so which clients stay warm is a pure function of the schedule
  // regardless of thread interleaving (DESIGN.md §17).

  /// Materializes (or revives) the device's client and marks it in use.
  /// Throws std::logic_error if the device is already acquired.
  fl::FlClient& acquire(std::uint64_t device);
  /// Returns an acquired client to the warm pool; beyond
  /// spec().max_resident the warm client with the lowest sequence number is
  /// destroyed immediately, keeping only its mutable_state() words.  (The
  /// internal auto-sequence increases per release, so single-threaded
  /// callers get exactly the legacy FIFO/LRU behavior.)
  void release(std::uint64_t device);
  /// Deferred form for concurrent phases: parks the client in the warm pool
  /// under the caller's logical sequence number (the invitation counter —
  /// globally increasing, unique per acquisition) WITHOUT evicting anything.
  /// Eviction happens at the next trim_warm() barrier, in ascending
  /// (seq, device) order — the exact set and order the serial path would
  /// have evicted — so mid-phase warm hits and the post-phase pool are
  /// interleaving-free.  Caller seqs live in their own ordering domain
  /// *above* every auto-sequenced release(device) (seq must be < 2^48), so
  /// setup-time probe releases always evict before cohort releases.
  void release(std::uint64_t device, std::uint64_t seq);
  /// Phase barrier: evicts lowest-seq warm clients until at most
  /// spec().max_resident remain.  Call after every concurrent train phase
  /// (no acquisitions may be in flight concurrently with the trim).
  void trim_warm();

  std::size_t resident() const;
  std::size_t peak_resident() const;
  std::uint64_t materializations() const;
  /// Warm clients destroyed (state spilled to the sparse map) so far — the
  /// measured half of the memory-∝-cohort claim.
  std::uint64_t evictions() const;

  // --- Checkpointing ---
  /// The sparse device-state map: saved states of evicted devices plus the
  /// live states of resident ones.  Throws std::logic_error while any
  /// client is acquired.
  util::StateMap states() const;
  /// Replaces the map with `states`, dropping all resident clients first.
  /// Throws std::logic_error while any client is acquired.
  void restore_states(const util::StateMap& states);

 private:
  struct Resident {
    std::unique_ptr<fl::FlClient> client;  // null while materializing
    bool in_use = false;
    /// Key in warm_ when !in_use.
    std::uint64_t warm_seq = 0;
  };

  /// Uniform double in [0, 1), pure in (seed, device, salt).
  double unit_hash(std::uint64_t device, std::uint64_t salt) const;
  void release_locked(std::uint64_t device, std::uint64_t seq);
  void evict_lowest_locked();

  PopulationSpec spec_;
  ClientFactory factory_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Resident> resident_;
  /// Warm (released) residents keyed by (logical release sequence, device);
  /// eviction consumes ascending keys, so the order is
  /// interleaving-independent, and the device component keeps keys unique
  /// even when auto and caller sequence domains are mixed across runs (a
  /// device is warm at most once).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> warm_;
  /// Auto-sequence for the legacy release(device) overload; also advanced
  /// past caller seqs so the two overloads can be mixed.
  std::uint64_t release_seq_ = 0;
  /// mutable_state() words of devices whose client was evicted.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> saved_state_;
  std::size_t peak_resident_ = 0;
  std::uint64_t materializations_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace cmfl::sched
