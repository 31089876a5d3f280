// The cluster worker — the paper's slave (§V-C) — and the master side
// around it, written once for the single master (net::FlCluster) and the
// replicated one (net/replicated_master.h).  On a new round's broadcast a
// worker runs the client step (fl::local_update), encodes an upload through
// its codec and answers with one sealed reply frame, which it re-sends byte
// for byte when the same broadcast arrives again or a replica redirects it:
// it trains at most once per round.  A single master is the case of one
// uplink: its broadcasts carry leader_id 0 and it never redirects.  Both
// masters keep the open round in a RoundLedger.  DESIGN.md §19.
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
#include "fl/round_commit.h"
#include "net/cluster.h"
#include "util/rng.h"

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

/// Round t's broadcast, sealed, from master replica `leader_id` (0 on a
/// single master): x_{t-1} and ū_{t-1} from `committer`, η_t from
/// `options`, and the negotiated codec.  Its seq is t.  Both masters build
/// every broadcast here, once per round, and resend the same bytes to every
/// invited worker and on every retransmit: crash and quarantine exclusion
/// are permanent, so all invited workers stand at the same round.
std::vector<std::byte> make_broadcast(std::uint64_t t, std::uint32_t leader_id,
                                      const fl::RoundCommitter& committer,
                                      const fl::SimulationOptions& options,
                                      const codec::CodecPlane& codecs);

/// Counters all workers of a run add to (relaxed atomics).
struct WorkerStats {
  ByteMeter uplink;  // reply frames sent; re-sends count as retransmits
  std::atomic<std::uint64_t> corrupt_rejected{0};
  std::atomic<std::uint64_t> redundant_frames{0};
  std::atomic<std::uint64_t> retransmits{0};
  std::atomic<std::uint64_t> leader_probes{0};
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
  /// The workers' codecs, every one made in the constructor, before any
  /// thread starts; worker threads never call into the plane.
  const codec::CodecPlane& codecs() const { return codecs_; }
  /// Worker k's codec (nullptr when dense), for the master's thread only.
  /// Worker k encodes between receiving a broadcast and sending its reply;
  /// a master may use it only after receiving that reply, which orders the
  /// two.
  codec::UpdateCodec* codec(std::size_t k) {
    return codecs_.enabled() ? &codecs_.at(k) : nullptr;
  }
  const WorkerStats& stats() const { return stats_; }
  /// Each client's sample count |P_k|, read before the threads start.
  const std::vector<std::size_t>& local_samples() const {
    return local_samples_;
  }

  /// Before start(): restores each worker's client and codec state, and
  /// resumes the uplink meter and frame counts from ck.meters.  Throws
  /// std::invalid_argument, before any state changes, unless the client
  /// states are keyed 0…n−1 and so are the codec states (none when dense).
  void restore(const fl::TrainerCheckpoint& ck);

  /// Checkpoint material, read only while quiesced (every worker's last
  /// reply received), as are codecs().states(): one state per client.
  util::StateMap client_states() const;

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
  codec::CodecPlane codecs_;
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
  /// `uplinks[r]` reaches master replica r; `codec` is worker k's (nullptr
  /// when dense).
  Worker(WorkerGroup& group, std::size_t k, codec::UpdateCodec* codec,
         std::vector<FaultyChannel> uplinks);

  /// Serves the worker's inbox until a Shutdown frame, a closed inbox, or
  /// its crash-stop round.  Throws std::runtime_error on a broadcast of the
  /// wrong dimension, codec or leader id.
  void serve();

 private:
  void resend(std::uint32_t replica);

  WorkerGroup& group_;
  std::uint32_t id_;
  codec::UpdateCodec* codec_;
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

/// How the RoundDriver committed a round: past a deadline expiry, and by
/// the first_k_reports-th reply.
struct RoundClose {
  bool timed_out = false;
  bool over_selected = false;
};

/// The open-round bookkeeping both masters keep: worker liveness and crash
/// order, each worker's last answered round, max staleness and missed
/// deadlines, the open round's invited set and accepted replies, and the
/// recovery counters.  The single master drives it from its receive loop,
/// the replicated state machine from committed log entries; either way a
/// round closes over its replies in client-id order.
class RoundLedger {
 public:
  /// One accepted reply, held until its round closes.
  struct Answer {
    bool upload = false;
    double score = 0.0;
    std::uint64_t wire_bytes = 0;  ///< the sealed reply frame
    std::vector<float> update{};   ///< uploads: the decoded update
  };

  explicit RoundLedger(std::size_t workers);

  std::size_t workers() const { return alive_.size(); }
  /// The last round opened; it takes replies while is_open().
  std::uint64_t round() const { return round_; }
  bool is_open() const { return open_; }
  bool alive(std::size_t k) const { return alive_[k] != 0; }
  /// Worker k is invited to the open round and has not answered it.
  bool awaits(std::size_t k) const {
    return open_ && invited_[k] && !answers_[k];
  }
  bool answered(std::size_t k) const { return open_ && answers_[k]; }
  /// accept() would take worker k's reply to `round`.
  bool expects(std::uint64_t round, std::size_t k) const {
    return round == round_ && k < alive_.size() && awaits(k);
  }
  std::size_t invited() const { return invited_count_; }
  std::size_t accepted() const { return accepted_; }
  std::size_t pending() const { return pending_; }
  /// An invited worker has not answered the open round, or crashed out.
  bool missed() const { return accepted_ < invited_count_; }
  const std::vector<std::uint32_t>& crashed() const { return crashed_; }
  /// Per worker: max over closed rounds t of t − its last answered round,
  /// taken while it is not quarantined.
  const std::vector<std::uint64_t>& max_staleness() const {
    return max_staleness_;
  }
  /// Consecutive rounds closed past a deadline without worker k's reply; a
  /// race lost to over-selection is no evidence of a crash.
  std::uint64_t missed_deadlines(std::size_t k) const {
    return missed_deadlines_[k];
  }
  /// Σ over closed rounds: broadcast downlink time + slowest tallied reply.
  double transfer_seconds() const { return transfer_seconds_; }
  /// Closed rounds that timed out; that missed an invited worker, unless
  /// over-selected; that were over-selected.  FaultReport's meanings.
  std::uint64_t timed_out_rounds() const { return timed_out_rounds_; }
  std::uint64_t quorum_rounds() const { return quorum_rounds_; }
  std::uint64_t over_select_commits() const { return over_select_commits_; }
  /// Worker-owned state may be read: no round is open, no worker was ever
  /// declared dead (its thread may still run), and every unquarantined
  /// worker answered the last round.  Reads only snapshot state.
  bool quiesced(const fl::RoundCommitter& committer) const;

  /// Continues after checkpointed round t, which every worker answered.
  void resume(std::uint64_t t, double transfer_seconds);
  /// Live workers the committer has not quarantined.
  std::size_t invitable(const fl::RoundCommitter& committer) const;
  /// Opens round t to every invitable worker; returns how many.
  std::size_t open(std::uint64_t t, const fl::RoundCommitter& committer,
                   std::uint64_t broadcast_bytes);
  /// Takes worker k's reply, its update by move.  Unless expects(round, k)
  /// — a duplicate, another round, a dead or quarantined worker — it
  /// refuses and changes nothing.
  bool accept(std::uint64_t round, std::size_t k, Answer answer);
  /// Declares worker k dead, once (crash order is kept).  If k awaited the
  /// open round, the round closes without it.
  void crash(std::size_t k);
  /// Hands the open round's replies to committer.close_round in client-id
  /// order, updates staleness, missed deadlines and the recovery counters
  /// by `how`, adds the round's transfer time, and frees the updates on the
  /// calling thread.
  fl::RoundOutcome close(fl::RoundCommitter& committer,
                         const fl::GlobalEvaluator& evaluate,
                         std::span<const std::size_t> samples,
                         const ClusterOptions& options, RoundClose how = {});

  /// Liveness, staleness, missed deadlines, counters and crash order: the
  /// replicated snapshot's part.  The reader throws std::runtime_error,
  /// changing nothing, on words for another worker count or words that do
  /// not hold what they claim.
  std::vector<std::uint64_t> state_words() const;
  void restore_state_words(std::span<const std::uint64_t> words);

 private:
  std::vector<char> alive_;
  std::vector<char> invited_;  // to the open round
  std::vector<std::optional<Answer>> answers_;
  std::vector<std::uint64_t> last_acked_;
  std::vector<std::uint64_t> max_staleness_;
  std::vector<std::uint64_t> missed_deadlines_;
  std::vector<std::uint32_t> crashed_;
  std::uint64_t round_ = 0;
  bool open_ = false;
  std::uint64_t broadcast_bytes_ = 0;
  std::size_t invited_count_ = 0;
  std::size_t accepted_ = 0;
  std::size_t pending_ = 0;
  double transfer_seconds_ = 0.0;
  std::uint64_t timed_out_rounds_ = 0;
  std::uint64_t quorum_rounds_ = 0;
  std::uint64_t over_select_commits_ = 0;
};

/// The round policy of both masters (RecoveryOptions): deadlines of
/// round_timeout_s · backoff^attempt · (1 + backoff_jitter·U), retransmit to
/// the unanswered, quorum and first-K commits, the crash after max_attempts,
/// and staleness suspicion.  It does no I/O and reads no clock.  The single
/// master applies each step to its ledger and channels, and a reply counts
/// once accepted; the replicated leader sends the broadcasts, proposes the
/// crashes and the commit, and a reply counts once proposed.
class RoundDriver {
 public:
  struct Step {
    std::vector<std::uint32_t> send;   ///< workers to send the broadcast to
    bool resend = false;               ///< the sends are retransmissions
    std::vector<std::uint32_t> crash;  ///< workers to declare dead
    std::optional<RoundClose> commit;  ///< set when the round commits
  };

  /// `jitter` is the owner's stream, drawn once per attempt deadline.
  RoundDriver(const RecoveryOptions& options, util::Rng jitter)
      : options_(options), jitter_(jitter) {}

  /// Drives the ledger's open round from the replies it holds.
  Step open(const RoundLedger& ledger, Clock::time_point now);
  /// A reply moves no deadline, so it needs no clock.  No-op unless awaits.
  Step on_reply(std::size_t k);
  /// Called once deadline() has passed.
  Step on_expiry(Clock::time_point now);
  bool awaits(std::size_t k) const {
    return k < awaited_.size() && awaited_[k] != 0;
  }
  /// None between rounds and when round_timeout_s is 0 (wait forever).
  std::optional<Clock::time_point> deadline() const { return deadline_; }

  /// After RoundLedger::close: the workers suspicion declares dead.  A pure
  /// function of the ledger, so every replica applies it with the commit.
  static std::vector<std::uint32_t> suspects(
      const RecoveryOptions& options, const RoundLedger& ledger,
      const fl::RoundCommitter& committer);

 private:
  Step settle(Step step);  // commits once every reply or the Kth is in
  Step commit(Step step, RoundClose how);
  void arm(Clock::time_point now);

  RecoveryOptions options_;
  util::Rng jitter_;
  std::vector<char> awaited_;
  std::size_t pending_ = 0;
  std::size_t accepted_ = 0;
  std::size_t quorum_ = 0;
  int attempt_ = 0;
  bool timed_out_ = false;
  std::optional<Clock::time_point> deadline_;
};

/// Sends `frame` to the step's workers and meters each send, as a
/// retransmission when the step resends or `original` is false; returns the
/// retransmissions.
std::uint64_t send_broadcast(const RoundDriver::Step& step,
                             const std::vector<std::byte>& frame,
                             std::vector<FaultyChannel>& downlinks,
                             ByteMeter& meter, bool original = true);

}  // namespace cmfl::net
