// Master–worker FL cluster over the wire protocol: the in-process
// equivalent of the paper's 30-node EC2 deployment (§V-C), hardened for
// the faulty edge networks CMFL actually targets.
//
// The master (the caller's thread) seals one Broadcast frame per iteration
// and sends it to every worker; each worker thread (net/worker.h)
// deserializes it, trains its FlClient, applies the upload filter, and
// answers with either a full update frame or a tiny Elimination frame.
// Every frame crosses a Channel as real bytes and is counted by the
// direction's ByteMeter — giving byte-exact network-footprint numbers for
// Fig. 7b.
//
// With a FaultPlan configured, frames may be dropped, bit-flipped (caught
// by the CRC), duplicated, delayed, or lost to crashed workers.  Recovery
// is master-driven: each round runs against a deadline, unanswered workers
// get the (sequence-numbered, idempotent) broadcast retransmitted with
// backoff, and the round commits once a quorum of live workers has
// answered.  Workers that exhaust the retransmit budget (or miss too many
// consecutive deadlines) are declared crashed; late and duplicate frames
// are discarded idempotently.  Both masters, single and replicated, run
// this policy through one net::RoundDriver over one net::RoundLedger (both
// in net/worker.h).  See DESIGN.md §9 for the protocol and its determinism
// argument.
#pragma once

#include <memory>
#include <thread>

#include "core/filter.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/simulation.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/message.h"

namespace cmfl::net {

/// Round-deadline / retransmission / quorum policy, the same on both
/// masters (net::RoundDriver).  The zero-timeout default reproduces the
/// seed's perfectly reliable synchronous protocol bit-for-bit; any FaultPlan
/// requires a positive deadline.  Timing values must be finite, and the
/// last attempt's deadline must fit the clock.
struct RecoveryOptions {
  /// Per-attempt round deadline in seconds (0 = wait forever).
  double round_timeout_s = 0.0;
  /// Deadline multiplier per retransmission attempt (exponential backoff).
  double backoff = 2.0;
  /// Maximum transmissions of one round's broadcast per worker (1 original
  /// + max_attempts-1 retransmits) before the worker is declared crashed.
  int max_attempts = 8;
  /// Fraction of live workers that must answer before a deadline may
  /// commit the round (1.0 = wait for every live worker).
  double quorum = 1.0;
  /// Declare a live worker crashed once it has missed the deadline of this
  /// many consecutive committed rounds (0 disables staleness suspicion;
  /// crashes are then detected only by retransmit exhaustion, which
  /// quorum < 1 rounds may never trigger).  Rounds that committed through
  /// first_k_reports neither count nor reset: a consistently slow-but-live
  /// worker merely loses over-selected races, and losing a race is not
  /// evidence of a crash (only deadline-expired rounds are).
  int suspect_after_stale_rounds = 0;
  /// Over-selection: commit the round as soon as this many replies have
  /// arrived, discarding the remaining workers' late replies idempotently
  /// (0 disables — every live worker is awaited as before).  This is the
  /// cluster-side counterpart of sched::RoundMode::kOverSelect: broadcast
  /// to everyone, keep the first K reporters, bound the tail.  Unlike the
  /// quorum path it needs no deadline — the Kth reply itself commits.
  /// Note the committed set depends on real reply arrival order (thread
  /// timing), so — exactly as with quorum < 1 — per-round counters are not
  /// bit-reproducible across runs.  A replicated leader counts a reply from
  /// its proposal, so the cohort is the Reply entries logged before the
  /// RoundCommit, on every replica.  Workers that only ever lose
  /// over-selected races are exempt from suspect_after_stale_rounds (see
  /// above), so in a run where every round K-commits, crash-stop workers
  /// are only detected once a deadline actually expires below K.
  std::size_t first_k_reports = 0;
  /// Seeded multiplicative jitter on the retransmission backoff: attempt
  /// deadlines become round_timeout_s * backoff^attempt * (1 + u * jitter)
  /// with u ~ U[0, 1) drawn from a stream derived from the fault-plan
  /// seed.  Desynchronizes retry storms that would otherwise pile onto a
  /// recovering master in lockstep.  The default 0 skips the draw entirely
  /// and reproduces the unjittered deadline schedule byte-for-byte.
  double backoff_jitter = 0.0;
};

/// Replicated control plane (DESIGN.md §14): `replicas` master replicas run
/// a Raft-style consensus (net/raft.h) over per-round control state, so a
/// leader crash mid-round loses nothing — the surviving quorum elects a new
/// leader that finishes the round bit-identically.  0 keeps the PR-2
/// single-master path.
struct ReplicationOptions {
  /// Number of master replicas (0 = single master; otherwise >= 3 so one
  /// crash still leaves a majority).
  int replicas = 0;
  /// Raft tick granularity in seconds; heartbeats and election timeouts
  /// are measured in these ticks.
  double tick_interval_s = 0.002;
  int heartbeat_ticks = 2;
  /// Election timeout range in ticks, drawn per node from a stream seeded
  /// by (seed, replica id) — randomized against split votes, seeded so the
  /// timeout sequences are reproducible.
  int election_timeout_min_ticks = 10;
  int election_timeout_max_ticks = 20;
  std::uint64_t seed = 7;
  /// Durable Raft storage (DESIGN.md §15): when non-empty, each replica i
  /// persists term/vote/log/snapshot under `storage_dir/replica<i>/` with
  /// persist-before-ack discipline, and FaultPlan::replica_restart crash-
  /// restart schedules become available.  Empty keeps replicas in-memory
  /// crash-stop (the PR-7 behavior).  The directory is created if missing;
  /// any state from a previous run in it is wiped at run start.
  std::string storage_dir;
  /// Raft pre-vote (on by default): a timed-out replica polls the cluster
  /// before incrementing its term, so a healed partitioned replica cannot
  /// depose a stable leader through term inflation.
  bool pre_vote = true;
};

struct ClusterOptions {
  /// E, B, η_t schedule, eval cadence, etc.  `fl.min_uploads` is accepted
  /// (perfbench's cluster_dense sets it) but not honoured: a worker whose
  /// filter eliminated its update sent only a status frame, so the master
  /// has no update to force upload.
  fl::SimulationOptions fl;
  LinkModel uplink;           // per-worker upload link model
  LinkModel downlink;         // broadcast link model
  FaultPlan fault;            // injected faults (default: none)
  RecoveryOptions recovery;   // deadlines / retransmit / quorum policy
  ReplicationOptions replication;  // master failover (default: off)
};

/// Fault and recovery accounting for one cluster run.  In the quorum-1.0
/// regime every counter is deterministic for a fixed FaultPlan seed.  Both
/// masters count the recovery actions in net::RoundLedger::close.
struct FaultReport {
  // Injected by the fault layer (sender side).
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  // Observed by receivers.
  std::uint64_t corrupt_rejected = 0;   // CRC/decode rejections
  std::uint64_t redundant_frames = 0;   // duplicate/stale frames discarded
  // Recovery actions.
  std::uint64_t retransmits = 0;        // frames re-sent (both directions)
  std::uint64_t timed_out_rounds = 0;   // rounds with >= 1 deadline expiry
  std::uint64_t quorum_rounds = 0;      // committed short, not by first-K
  std::uint64_t over_select_commits = 0;  // rounds closed by first_k_reports
  // Replicated control plane (always 0 in single-master runs).  These are
  // wall-clock-coupled — a slow machine may hold extra elections — so they
  // are excluded from bit-reproducibility claims, unlike the trajectory.
  std::uint64_t elections_held = 0;       // leaderships won across replicas
  std::uint64_t leader_crashes = 0;       // scheduled leader kills fired
  std::uint64_t log_entries_replicated = 0;  // entries appended on followers
  std::uint64_t snapshot_transfers = 0;   // snapshots installed on followers
  std::uint64_t leader_redirects = 0;     // stale-leader redirects served
  std::uint64_t leader_probes = 0;        // worker round-robin leader probes
  // Durable storage (0 unless ReplicationOptions::storage_dir is set).
  std::uint64_t replica_restarts = 0;     // crash-restart recoveries completed
  std::uint64_t restart_load_errors = 0;  // restarts refused by loud recovery
  std::uint64_t wal_bytes_fsynced = 0;    // WAL bytes covered by an fsync
  std::uint64_t wal_replay_entries = 0;   // log entries replayed at restarts
  std::vector<std::uint32_t> crashed_workers;  // declared dead, in order
  /// max over committed rounds t of (t - last round client k participated).
  std::vector<std::uint64_t> max_staleness_per_client;

  bool operator==(const FaultReport&) const = default;
};

/// One accuracy-vs-bytes sample of a cluster run's footprint curve.
struct FootprintPoint {
  std::uint64_t iteration = 0;
  double accuracy = 0.0;
  std::uint64_t uplink_bytes = 0;  // cumulative Φ bytes at this evaluation

  bool operator==(const FootprintPoint&) const = default;
};

/// `sim`, the footprint and the two reply-frame counts count the replies
/// the rounds tallied, once each, so at quorum 1.0 a faulty run's history
/// equals the fault-free run's; the byte meters count physical frames,
/// retransmissions included.
struct ClusterResult {
  fl::SimulationResult sim;
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_retransmitted_bytes = 0;
  std::uint64_t downlink_retransmitted_bytes = 0;
  std::uint64_t upload_messages = 0;       // tallied full update frames
  std::uint64_t elimination_messages = 0;  // tallied status-only frames
  /// Replicated runs: bytes of Raft traffic (votes, AppendEntries,
  /// heartbeats, snapshot transfers) between master replicas.  Control
  /// overhead is deliberately metered apart from the data plane so Fig.-7b
  /// numbers stay comparable; heartbeat volume scales with wall-clock time
  /// and is therefore not bit-reproducible.
  std::uint64_t control_plane_bytes = 0;
  /// Sharded ingest (options.fl.sharding): upload wire bytes / upload count
  /// ingested per aggregator shard, in shard order — one entry per shard,
  /// one shard when shards <= 1.  Empty for replicated runs.
  /// Deterministic at quorum 1.0 (uploads route by commit index mod S, not
  /// arrival order).
  std::vector<std::uint64_t> shard_uplink_bytes;
  std::vector<std::uint64_t> shard_uploads;
  /// Simulated transfer time had the links been real edge connections
  /// (per round, the broadcast plus the slowest tallied reply, summed).
  double simulated_transfer_seconds = 0.0;
  std::vector<FootprintPoint> footprint;  // one point per evaluated round
  FaultReport faults;
};

class FlCluster {
 public:
  /// Same contract as fl::FederatedSimulation, but execution flows through
  /// worker threads and serialized messages.
  ///
  /// Checkpointing is driven by options.fl.checkpoint_every /
  /// checkpoint_path, exactly as in the in-process simulation.  A cluster
  /// checkpoint is only written when the round is quiesced — every active
  /// worker answered and none has been declared crashed — because that is
  /// when the master can safely read worker-owned client state (the
  /// worker's reply happens-before the master's read).  Fault-injection
  /// counters are not checkpointed; injected fault streams restart on
  /// resume, so at quorum 1.0 the resumed trajectory is still bit-identical
  /// to the uninterrupted run.
  FlCluster(std::vector<std::unique_ptr<fl::FlClient>> clients,
            std::unique_ptr<core::UpdateFilter> filter,
            fl::GlobalEvaluator evaluator, const ClusterOptions& options);

  ClusterResult run();

  /// Continues a checkpointed cluster run from ck.iteration + 1 (same
  /// workload spec and options as the original run).  Throws
  /// std::invalid_argument when the checkpoint does not fit this cluster:
  /// an in-process checkpoint (sched.engaged), a dimension or shard count
  /// mismatch, client states not keyed 0…n−1, or codec states not keyed
  /// 0…n−1 (none when dense).
  ClusterResult resume(const fl::TrainerCheckpoint& checkpoint);

 private:
  ClusterResult run_internal(const fl::TrainerCheckpoint* resume_from);
  ClusterResult run_single_master(const fl::TrainerCheckpoint* resume_from);

  std::vector<std::unique_ptr<fl::FlClient>> clients_;
  std::unique_ptr<core::UpdateFilter> filter_;
  fl::GlobalEvaluator evaluator_;
  ClusterOptions options_;
  std::size_t dim_;
};

}  // namespace cmfl::net
