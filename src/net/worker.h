// The cluster worker — the paper's slave (§V-C) — written once for the
// single master (net::FlCluster) and the replicated one
// (net/replicated_master.h).  On a new round's broadcast a worker runs the
// client step (fl::local_update), encodes an upload through its codec and
// answers with one sealed reply frame, which it re-sends byte for byte when
// the same broadcast arrives again or a replica redirects it: it trains at
// most once per round.  A single master is the case of one uplink: its
// broadcasts carry leader_id 0 and it never redirects.  DESIGN.md §19.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "codec/codec.h"
#include "core/filter.h"
#include "fl/client.h"
#include "net/cluster.h"

namespace cmfl::fl {
class RoundCommitter;  // fl/round_commit.h
}  // namespace cmfl::fl

namespace cmfl::net {

using Clock = std::chrono::steady_clock;

inline Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Worker-side leader discovery (pure bookkeeping, unit-testable).  Workers
/// cache the last replica a broadcast arrived from and normally follow
/// RedirectMsg hints; a chain of more than 2 * replicas redirects without an
/// intervening broadcast is a redirect *loop* (two stale replicas hinting at
/// each other during an election), at which point the worker stops trusting
/// hints and probes the replicas round-robin with doubling, capped backoff
/// until a broadcast proves a real leader again.
struct LeaderProbe {
  explicit LeaderProbe(std::uint32_t n) : replicas(n) {}

  std::uint32_t replicas = 0;
  std::uint32_t known_leader = 0;  // last replica a broadcast arrived from
  std::uint32_t redirects = 0;     // hints followed since the last broadcast
  std::uint32_t probe_cursor = 0;  // round-robin position while probing
  double backoff_ms = 1.0;
  static constexpr double kBackoffCapMs = 16.0;

  /// Where a redirect resolves the worker's next send.
  struct Target {
    std::uint32_t replica = 0;
    bool probed = false;     // true: round-robin probe, not a followed hint
    double backoff_ms = 0.0; // sleep before the send (probes only)
  };

  /// Called with a RedirectMsg's hinted leader id.  Follows a valid hint
  /// while the redirect budget lasts; past it (or on an out-of-range hint)
  /// returns the next round-robin probe target.
  Target on_redirect(std::uint32_t hinted);

  /// A broadcast from `leader` proves the real leader; resets the budget.
  void on_broadcast(std::uint32_t leader);
};

/// The workers' codecs — worker k's seeded `seed_salt + k`, as in every
/// runtime — and the codec id/version each broadcast negotiates.  Holds no
/// codec for the dense spec (id 0, version 1).
class CodecPlane {
 public:
  CodecPlane(const codec::CodecOptions& options, std::size_t workers);

  bool enabled() const { return !codecs_.empty(); }
  std::uint8_t id() const { return id_; }
  std::uint8_t version() const { return version_; }
  /// Worker k's codec (nullptr when dense).  Worker k encodes between
  /// receiving a broadcast and sending its reply; a master may use it only
  /// after receiving that reply, which orders the two.
  codec::UpdateCodec* at(std::size_t k) const {
    return enabled() ? codecs_[k].get() : nullptr;
  }

 private:
  std::vector<std::unique_ptr<codec::UpdateCodec>> codecs_;
  std::uint8_t id_ = 0;
  std::uint8_t version_ = 1;
};

/// Round t's broadcast, sealed, from master replica `leader_id` (0 on a
/// single master): x_{t-1} and ū_{t-1} from `committer`, η_t from
/// `options`, and the negotiated codec.  Its seq is t.  Both masters build
/// every broadcast here, once per round, and resend the same bytes to every
/// invited worker and on every retransmit: crash and quarantine exclusion
/// are permanent, so all invited workers stand at the same round.
std::vector<std::byte> make_broadcast(std::uint64_t t, std::uint32_t leader_id,
                                      const fl::RoundCommitter& committer,
                                      const fl::SimulationOptions& options,
                                      const CodecPlane& codecs);

/// Counters all workers of a run add to (relaxed atomics).
struct WorkerStats {
  ByteMeter uplink;  // reply frames sent; re-sends count as retransmits
  std::atomic<std::uint64_t> corrupt_rejected{0};
  std::atomic<std::uint64_t> redundant_frames{0};
  std::atomic<std::uint64_t> retransmits{0};
  std::atomic<std::uint64_t> leader_probes{0};
  std::atomic<std::uint64_t> upload_frames{0};
  std::atomic<std::uint64_t> elimination_frames{0};
};

/// Owns a run's workers: their inboxes, codecs, counters and threads.
/// Declare it after everything its threads use: its destructor shuts the
/// workers down and joins them, so on every exit path it goes first.
class WorkerGroup {
 public:
  WorkerGroup(std::vector<std::unique_ptr<fl::FlClient>>& clients,
              const core::UpdateFilter& filter, const ClusterOptions& options);
  WorkerGroup(const WorkerGroup&) = delete;  // its threads hold `this`
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() { stop(); }

  std::size_t size() const { return clients_.size(); }
  Channel& inbox(std::size_t k) { return inboxes_[k]; }
  const CodecPlane& codecs() const { return codecs_; }
  const WorkerStats& stats() const { return stats_; }
  /// Each client's sample count |P_k|, read before the threads start.
  const std::vector<std::size_t>& local_samples() const {
    return local_samples_;
  }

  /// Before start(): restores each worker's client and codec state, and
  /// resumes the uplink meter and frame counts from ck.meters.  Throws
  /// std::invalid_argument on a worker count mismatch.
  void restore(const fl::TrainerCheckpoint& ck);

  /// Checkpoint material, read only while quiesced (every worker's last
  /// reply received): one state per client, and one per codec (none when
  /// dense).
  std::vector<std::vector<std::uint64_t>> client_states() const;
  std::vector<std::vector<std::uint64_t>> codec_states() const;

  /// Starts one thread per worker k, whose uplink to master replica
  /// r < `replicas` is `uplink(k, r)`.  A worker thread that throws keeps
  /// the first error for rethrow_error() and calls `wake`, which must wake
  /// whichever master is waiting for replies.
  void start(std::uint32_t replicas,
             const std::function<FaultyChannel(std::size_t, std::uint32_t)>&
                 uplink,
             std::function<void()> wake);

  /// Sends each worker a Shutdown frame outside fault injection (so it
  /// always arrives) and joins the threads.  Idempotent; never throws a
  /// worker's error.
  void stop();

  /// Rethrows the first error a worker thread raised, if any.
  void rethrow_error() const;

 private:
  friend class Worker;

  std::vector<std::unique_ptr<fl::FlClient>>& clients_;
  const core::UpdateFilter& filter_;
  const ClusterOptions& options_;
  std::vector<std::size_t> local_samples_;
  std::vector<Channel> inboxes_;
  CodecPlane codecs_;
  WorkerStats stats_;
  std::function<FaultyChannel(std::size_t, std::uint32_t)> uplink_;
  std::uint32_t replicas_ = 0;
  mutable std::mutex error_mutex_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// Worker k of a group: its one update buffer and its cached reply.
class Worker {
 public:
  /// `uplinks[r]` reaches master replica r.
  Worker(WorkerGroup& group, std::size_t k,
         std::vector<FaultyChannel> uplinks);

  /// Serves the worker's inbox until a Shutdown frame, a closed inbox, or
  /// its crash-stop round.  Throws std::runtime_error on a broadcast of the
  /// wrong dimension, codec or leader id.
  void serve();

 private:
  void resend(std::uint32_t replica);

  WorkerGroup& group_;
  std::uint32_t id_;
  std::vector<FaultyChannel> uplinks_;
  std::vector<float> update_;
  std::uint32_t last_seq_ = 0;  // broadcast seq numbers start at 1
  std::vector<std::byte> cached_reply_;
  LeaderProbe probe_;
};

/// A worker's reply as a master receives it.
struct Reply {
  Message msg;  // an UpdateUpload, CodecUpload or Elimination frame
  std::uint64_t iteration = 0;
  std::uint32_t client_id = 0;
  double score = 0.0;

  bool is_upload() const {
    return !std::holds_alternative<EliminationMsg>(msg);
  }
};

/// The reply intake both masters share.  Decodes an opened payload:
/// std::nullopt when it does not decode (a corrupt frame).  Throws
/// std::runtime_error on a protocol error: a frame type workers never send,
/// a client id of no worker, or an upload off the negotiated codec.
std::optional<Reply> read_reply(std::span<const std::byte> payload,
                                const WorkerGroup& workers);

/// An upload reply's dense update: its own values, moved out of `reply`, or
/// its payload decoded by `decoder`.  The frame CRC vouched for transit, so
/// a payload the codec rejects, or an update that does not hold `dim`
/// floats, is a protocol error and propagates.
std::vector<float> reply_update(Reply& reply, codec::UpdateCodec* decoder,
                                std::size_t dim);

}  // namespace cmfl::net
