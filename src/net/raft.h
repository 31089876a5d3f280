// Minimal Raft-style consensus for the replicated FL control plane.
//
// Three master replicas replicate per-round control state (broadcast model
// id, cohort, received-update/elimination set, aggregation commit) through
// this log so that a leader crash mid-round loses nothing: the surviving
// quorum elects a new leader and finishes the round from the committed
// prefix, bit-identically to the fault-free run (DESIGN.md §14).
//
// The implementation is the textbook core of Raft (Ongaro & Ousterhout,
// §5), deliberately minimal:
//   * Leader election with randomized-but-seeded timeouts.  Each node draws
//     its election timeout from an independent util::Rng stream derived
//     from (seed, node id), so the timeout *sequence* of every node is a
//     pure function of the configuration — runs differ only in how real
//     time interleaves those sequences, and the replicated state machine is
//     insensitive to that interleaving by construction.
//   * Term/log replication with the AppendEntries consistency check,
//     follower conflict hints for fast backtracking, and the "only count
//     replicas for entries of the current term" commit rule.
//   * Log compaction + snapshot transfer: the host applies committed
//     entries, then hands the node an opaque application snapshot via
//     compact(); a follower that has fallen behind the compaction horizon
//     is caught up with InstallSnapshot instead of log entries.
//
// RaftNode is single-threaded and purely message-driven: the host calls
// step() for each incoming frame and tick() on a timer, then drains
// take_outbox() / take_committed().  No wall clock, no threads — which is
// what makes the unit tests (tests/test_net_raft.cpp) fully deterministic.
//
// Durability (DESIGN.md §15): by default a node keeps term/vote/log in
// memory and is crash-stop for one run.  Hand the constructor a RaftStorage
// and the node gains persist-before-ack semantics — term and vote are on
// stable storage before any vote reply leaves the node, entries before any
// AppendEntries success — and a restarted process recovers the persistent
// state (term, vote, snapshot, log suffix) from the same directory and
// rejoins as a follower.  The commit index is volatile by design: the
// recovered node re-learns it from the next leader heartbeat, exactly as
// the Raft paper prescribes.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/durable_file.h"
#include "util/rng.h"

namespace cmfl::net {

// ---------------------------------------------------------------- messages

struct RequestVoteMsg {
  std::uint64_t term = 0;
  std::uint32_t candidate = 0;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct VoteReplyMsg {
  std::uint64_t term = 0;
  std::uint32_t voter = 0;
  std::uint8_t granted = 0;
};

struct RaftEntry {
  std::uint64_t term = 0;
  std::vector<std::byte> command;  // empty = leader no-op barrier

  bool operator==(const RaftEntry&) const = default;
};

struct AppendEntriesMsg {
  std::uint64_t term = 0;
  std::uint32_t leader = 0;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::uint64_t commit = 0;
  std::vector<RaftEntry> entries;  // empty = heartbeat
};

struct AppendReplyMsg {
  std::uint64_t term = 0;
  std::uint32_t follower = 0;
  std::uint8_t success = 0;
  /// On success: highest index known replicated on the follower.  On
  /// failure: the follower's last log index — the leader's backtracking
  /// hint, so a lagging follower is found in one round trip instead of one
  /// decrement per missing entry.
  std::uint64_t match_index = 0;
};

struct InstallSnapshotMsg {
  std::uint64_t term = 0;
  std::uint32_t leader = 0;
  std::uint64_t last_index = 0;  // snapshot covers the log through here
  std::uint64_t last_term = 0;
  std::vector<std::byte> data;   // opaque application snapshot
};

struct SnapshotReplyMsg {
  std::uint64_t term = 0;
  std::uint32_t follower = 0;
  std::uint64_t last_index = 0;
};

/// Pre-vote poll (Raft §9.6): `term` is the *proposed* term (current + 1);
/// the poller's own term is untouched, so a node that cannot win — e.g. a
/// healed partitioned replica with a stale log — cannot inflate terms and
/// depose a stable leader.
struct PreVoteMsg {
  std::uint64_t term = 0;  // proposed term, not the sender's current term
  std::uint32_t candidate = 0;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct PreVoteReplyMsg {
  std::uint64_t term = 0;  // echoes the proposed term being polled for
  std::uint32_t voter = 0;
  std::uint8_t granted = 0;
};

using RaftMessage =
    std::variant<RequestVoteMsg, VoteReplyMsg, AppendEntriesMsg,
                 AppendReplyMsg, InstallSnapshotMsg, SnapshotReplyMsg,
                 PreVoteMsg, PreVoteReplyMsg>;

/// Raft frames share the replica inboxes with FL data frames; their type
/// bytes start at 16 so the two families can never collide (FL frames use
/// 1..6, net/message.h).
std::vector<std::byte> encode_raft(const RaftMessage& msg);

/// Throws std::runtime_error on unknown type or truncation.
RaftMessage decode_raft(std::span<const std::byte> frame);

/// True when an (already CRC-opened) payload is a Raft frame rather than an
/// FL data frame.
bool is_raft_frame(std::span<const std::byte> payload) noexcept;

/// The replica id a message came from — what receiver-side partition
/// injection filters on.
std::uint32_t raft_sender(const RaftMessage& msg) noexcept;

// ----------------------------------------------------------------- storage

/// What RaftStorage recovered from its directory at open time.  `log` holds
/// the entries in (snapshot_index, snapshot_index + log.size()], 1-based —
/// the same convention as RaftNode's in-memory log.
struct RaftPersistentState {
  bool any = false;  // false: the directory held no prior state
  std::uint64_t term = 0;
  std::optional<std::uint32_t> voted_for;
  std::uint64_t snapshot_index = 0;
  std::uint64_t snapshot_term = 0;
  std::vector<std::byte> snapshot;  // opaque application snapshot
  std::vector<RaftEntry> log;
  bool wal_tail_truncated = false;  // a torn final write was cut on recovery
};

/// Durability accounting, cumulative across WAL rotations for one handle.
struct RaftStorageCounters {
  std::uint64_t wal_bytes_fsynced = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t replay_entries = 0;     // entry records applied at open
  std::uint64_t snapshots_written = 0;  // sealed snapshot files written
};

/// Durable backing store for one RaftNode: a CRC-framed write-ahead log of
/// (hard state, entry, truncate) records — util::DurableFile — plus an
/// atomically-replaced sealed snapshot file.  Opening the directory runs
/// recovery: the snapshot (if present) is loaded and the WAL replayed on
/// top of it, with the torn-tail rule tolerating a crash mid-append but
/// refusing silent mid-log corruption (std::runtime_error).  The WAL is
/// rotated (rewritten to just hard state + log tail) whenever a snapshot
/// supersedes its prefix, bounding its size to one compaction interval.
///
/// Single-threaded, like the RaftNode it backs.
class RaftStorage {
 public:
  /// Opens (creating if needed) the storage directory and recovers any
  /// prior state.  `sync` = false skips fsyncs (fast unit tests only).
  /// Throws std::runtime_error on corrupt state that recovery must not
  /// silently repair.
  explicit RaftStorage(std::string dir, bool sync = true);

  RaftStorage(const RaftStorage&) = delete;
  RaftStorage& operator=(const RaftStorage&) = delete;

  const RaftPersistentState& recovered() const noexcept { return state_; }

  /// Durably records (term, vote); deduplicates, so calling it after every
  /// potential change is cheap.  On stable storage when the call returns.
  void persist_hard_state(std::uint64_t term,
                          std::optional<std::uint32_t> voted_for);

  /// Durably appends the log entry at `index`.  With `sync_now` the entry
  /// is on stable storage when the call returns; batch a run of appends
  /// with sync_now = false and one sync() to pay a single fsync.
  void append_entry(std::uint64_t index, const RaftEntry& entry,
                    bool sync_now = true);

  /// Records that the log was truncated to `last_kept` (conflict-suffix
  /// rule).  Not fsynced by itself: always followed by the appends of the
  /// replacement entries and their sync().
  void truncate_suffix(std::uint64_t last_kept);

  /// Flushes batched appends to stable storage.
  void sync();

  /// Atomically persists the application snapshot covering the log through
  /// `index` and rotates the WAL down to hard state + `tail` (the entries
  /// after `index` that remain live).
  void install_snapshot(std::uint64_t index, std::uint64_t term,
                        std::span<const std::byte> data,
                        std::span<const RaftEntry> tail);

  /// Cumulative counters including all rotated-away WAL incarnations.
  RaftStorageCounters counters() const noexcept;

  std::string wal_path() const;
  std::string snapshot_path() const;

 private:
  void replay_record(std::span<const std::byte> record);
  std::vector<std::byte> hard_state_record() const;

  std::string dir_;
  bool sync_ = true;
  std::optional<util::DurableFile> wal_;  // reopened on rotation
  RaftPersistentState state_;
  // Last durably-recorded hard state, for deduplication.
  std::uint64_t hard_term_ = 0;
  std::optional<std::uint32_t> hard_vote_;
  RaftStorageCounters counters_;
  util::DurableFileStats retired_;  // stats of rotated-away WAL handles
};

// -------------------------------------------------------------------- node

struct RaftConfig {
  std::uint32_t id = 0;
  std::uint32_t cluster_size = 3;
  /// Seed of the election-timeout jitter stream (shared across the cluster;
  /// each node splits off its own sub-stream by id).
  std::uint64_t seed = 7;
  /// Leader heartbeat cadence, in ticks.
  int heartbeat_ticks = 2;
  /// Election timeout drawn uniformly from [min, max] ticks, redrawn after
  /// every timeout so repeated split votes cannot stay synchronized.
  int election_timeout_min_ticks = 10;
  int election_timeout_max_ticks = 20;
  /// Pre-vote (Raft §9.6): on timeout, poll the cluster at term + 1 without
  /// incrementing the term, and only start a real election once a majority
  /// says the poll would win.  Prevents a healed partitioned node from
  /// deposing a stable leader through term inflation.
  bool pre_vote = false;

  /// Throws std::invalid_argument on a malformed configuration.
  void validate() const;
};

/// Monotonic counters a run's FaultReport aggregates across replicas.
struct RaftCounters {
  std::uint64_t elections_won = 0;       // times this node became leader
  std::uint64_t entries_appended = 0;    // new entries accepted as follower
  std::uint64_t snapshots_installed = 0; // InstallSnapshot frames applied
};

class RaftNode {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  /// `storage`, when given, must outlive the node; the node restores the
  /// recovered persistent state (term, vote, snapshot, log) and persists
  /// every change before the acknowledgement that depends on it can leave
  /// take_outbox().  A recovered node starts as a follower with
  /// commit = delivered = snapshot_index: the host must restore its
  /// application state from storage->recovered().snapshot, after which the
  /// node re-delivers the committed suffix learned from the next leader.
  explicit RaftNode(const RaftConfig& config, RaftStorage* storage = nullptr);

  /// Advances the node by one tick: followers/candidates count toward the
  /// election timeout, leaders toward the next heartbeat.
  void tick();

  /// Handles one incoming message.
  void step(const RaftMessage& msg);

  /// Appends a command to the leader's log and starts replicating it.
  /// Returns false (and does nothing) when this node is not the leader.
  bool propose(std::vector<std::byte> command);

  /// Messages produced by tick()/step()/propose() since the last drain,
  /// in send order.
  struct Send {
    std::uint32_t to = 0;
    RaftMessage msg;
  };
  std::vector<Send> take_outbox();

  /// Committed entries not yet handed to the host, in log order.  No-op
  /// barrier entries are filtered out; `index` still reflects their slots.
  struct Committed {
    std::uint64_t index = 0;
    std::vector<std::byte> command;
  };
  std::vector<Committed> take_committed();

  /// A snapshot installed by the leader since the last drain: the host must
  /// replace its application state with `data` (which covers the log
  /// through `last_index`).
  struct InstalledSnapshot {
    std::uint64_t last_index = 0;
    std::vector<std::byte> data;
  };
  std::optional<InstalledSnapshot> take_installed_snapshot();

  /// Discards log entries through `index` (which must be applied, i.e.
  /// <= commit) and retains `snapshot` as the application state at that
  /// point — what InstallSnapshot ships to followers that fell behind.
  void compact(std::uint64_t index, std::vector<std::byte> snapshot);

  Role role() const noexcept { return role_; }
  std::uint64_t term() const noexcept { return term_; }
  /// Leader only: the highest log index known replicated on `peer` (0 when
  /// not leader).  The finish protocol uses this to linger until surviving
  /// followers hold the full log before tearing the cluster down.
  std::uint64_t peer_match_index(std::uint32_t peer) const noexcept;
  /// Best guess at the current leader (own id when leader); the redirect
  /// target for stale-leader data frames.
  std::uint32_t leader_hint() const noexcept { return leader_hint_; }
  std::uint64_t commit_index() const noexcept { return commit_; }
  std::uint64_t last_log_index() const noexcept;
  const RaftCounters& counters() const noexcept { return counters_; }

 private:
  std::uint64_t term_at(std::uint64_t index) const;
  const RaftEntry& entry_at(std::uint64_t index) const;
  void become_follower(std::uint64_t term);
  void become_candidate();
  void become_leader();
  void begin_prevote();
  void reset_election_timer();
  void send_append(std::uint32_t peer);
  void broadcast_heartbeat();
  void advance_commit();
  void enqueue_committed();
  void persist_hard_state();
  void persist_last_entry(bool sync_now);
  void handle(const RequestVoteMsg& m);
  void handle(const VoteReplyMsg& m);
  void handle(const AppendEntriesMsg& m);
  void handle(const AppendReplyMsg& m);
  void handle(const InstallSnapshotMsg& m);
  void handle(const SnapshotReplyMsg& m);
  void handle(const PreVoteMsg& m);
  void handle(const PreVoteReplyMsg& m);

  RaftConfig config_;
  RaftStorage* storage_ = nullptr;  // may be null: in-memory crash-stop node
  util::Rng timeout_rng_;

  Role role_ = Role::kFollower;
  std::uint64_t term_ = 0;
  std::optional<std::uint32_t> voted_for_;
  std::uint32_t leader_hint_ = 0;

  // Log entries (snapshot_index_ .. snapshot_index_ + log_.size()], 1-based.
  std::deque<RaftEntry> log_;
  std::uint64_t snapshot_index_ = 0;  // last index covered by snapshot_
  std::uint64_t snapshot_term_ = 0;
  std::vector<std::byte> snapshot_;

  std::uint64_t commit_ = 0;
  std::uint64_t delivered_ = 0;  // last index handed to the host

  int ticks_ = 0;           // since last heard from a leader / last heartbeat
  int election_timeout_ = 0;
  std::vector<std::uint8_t> votes_;
  bool prevoting_ = false;
  std::vector<std::uint8_t> prevotes_;

  // Leader-only replication state, indexed by peer id.
  std::vector<std::uint64_t> next_index_;
  std::vector<std::uint64_t> match_index_;

  std::vector<Send> outbox_;
  std::vector<Committed> committed_out_;
  std::optional<InstalledSnapshot> installed_;
  RaftCounters counters_;
};

}  // namespace cmfl::net
