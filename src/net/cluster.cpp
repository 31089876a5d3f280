#include "net/cluster.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "codec/codec.h"
#include "fl/checkpoint.h"
#include "fl/round_commit.h"
#include "net/raft.h"
#include "net/replicated_master.h"
#include "net/worker.h"

namespace cmfl::net {

FlCluster::FlCluster(std::vector<std::unique_ptr<fl::FlClient>> clients,
                     std::unique_ptr<core::UpdateFilter> filter,
                     fl::GlobalEvaluator evaluator,
                     const ClusterOptions& options)
    : clients_(std::move(clients)),
      filter_(std::move(filter)),
      evaluator_(std::move(evaluator)),
      options_(options) {
  if (clients_.empty()) throw std::invalid_argument("FlCluster: no clients");
  if (!filter_) throw std::invalid_argument("FlCluster: null filter");
  if (!evaluator_) throw std::invalid_argument("FlCluster: null evaluator");
  dim_ = clients_.front()->param_count();
  for (const auto& c : clients_) {
    if (c->param_count() != dim_) {
      throw std::invalid_argument(
          "FlCluster: clients disagree on parameter count");
    }
  }
  options_.fault.validate(clients_.size());
  const RecoveryOptions& rec = options_.recovery;
  if (rec.round_timeout_s < 0.0) {
    throw std::invalid_argument("FlCluster: negative round deadline");
  }
  if (rec.max_attempts < 1) {
    throw std::invalid_argument("FlCluster: max_attempts must be >= 1");
  }
  if (rec.backoff < 1.0) {
    throw std::invalid_argument("FlCluster: backoff must be >= 1");
  }
  if (!(rec.quorum > 0.0 && rec.quorum <= 1.0)) {
    throw std::invalid_argument("FlCluster: quorum must lie in (0, 1]");
  }
  if (rec.suspect_after_stale_rounds < 0) {
    throw std::invalid_argument(
        "FlCluster: suspect_after_stale_rounds must be >= 0");
  }
  if (rec.backoff_jitter < 0.0) {
    throw std::invalid_argument("FlCluster: backoff_jitter must be >= 0");
  }
  if (options_.fault.enabled() && rec.round_timeout_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: fault injection requires a positive recovery "
        "round_timeout_s (a dropped frame would hang the round forever)");
  }
  // Validate the codec spec eagerly, before any thread exists.
  const auto codec_probe = codec::make_update_codec(
      options_.fl.codec.spec, options_.fl.codec.seed_salt);
  const ReplicationOptions& rep = options_.replication;
  if (rep.replicas > 0 && codec_probe->stateful_decode()) {
    throw std::invalid_argument(
        "FlCluster: replicated mode requires a stateless-decode codec — "
        "after a failover any replica must be able to decode any payload, "
        "which a decoder-side codebook cache cannot guarantee");
  }
  if (rep.replicas == 0) {
    if (!options_.fault.leader_crash.empty() ||
        !options_.fault.replica_restart.empty() ||
        !options_.fault.replica_partition.empty()) {
      throw std::invalid_argument(
          "FlCluster: leader-crash / restart / partition schedules need "
          "replication.replicas >= 3");
    }
    return;
  }
  if (rep.replicas < 3) {
    throw std::invalid_argument(
        "FlCluster: replication needs >= 3 replicas (a majority must "
        "survive one crash)");
  }
  if (rec.quorum != 1.0 || rec.first_k_reports != 0 ||
      rec.suspect_after_stale_rounds != 0) {
    throw std::invalid_argument(
        "FlCluster: replicated mode supports quorum 1.0 only (no "
        "first_k_reports / staleness suspicion): the committed cohort must "
        "be a pure function of replicated state");
  }
  if (options_.fl.sharding.shards > 1) {
    throw std::invalid_argument(
        "FlCluster: sharded aggregation is not supported with a replicated "
        "control plane (the replicated master applies uploads through its "
        "Raft-ordered state machine)");
  }
  if (rep.tick_interval_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: replication tick_interval_s must be positive");
  }
  RaftConfig raft_check;
  raft_check.cluster_size = static_cast<std::uint32_t>(rep.replicas);
  raft_check.heartbeat_ticks = rep.heartbeat_ticks;
  raft_check.election_timeout_min_ticks = rep.election_timeout_min_ticks;
  raft_check.election_timeout_max_ticks = rep.election_timeout_max_ticks;
  raft_check.validate();
  for (const auto& [r, _] : options_.fault.replica_partition) {
    if (r >= static_cast<std::uint32_t>(rep.replicas)) {
      throw std::invalid_argument(
          "FlCluster: replica_partition id out of range");
    }
  }
  if (options_.fault.leader_crash.size() >
      static_cast<std::size_t>(rep.replicas - 1) / 2) {
    throw std::invalid_argument(
        "FlCluster: leader_crash schedule may kill at most a minority of "
        "replicas (each entry fires once)");
  }
  if (!options_.fault.replica_restart.empty() && rep.storage_dir.empty()) {
    throw std::invalid_argument(
        "FlCluster: replica_restart schedules need "
        "replication.storage_dir (a restarted replica recovers from its "
        "durable Raft storage)");
  }
}

ClusterResult FlCluster::run() { return run_internal(nullptr); }

ClusterResult FlCluster::resume(const fl::TrainerCheckpoint& checkpoint) {
  return run_internal(&checkpoint);
}

ClusterResult FlCluster::run_internal(
    const fl::TrainerCheckpoint* resume_from) {
  ClusterResult result =
      options_.replication.replicas > 0
          ? run_replicated_cluster(clients_, *filter_, evaluator_, options_,
                                   dim_, resume_from)
          : run_single_master(resume_from);
  // One point per evaluated round, read off the history (which a resumed
  // run restores with the rest of the committed state).
  for (const fl::IterationRecord& rec : result.sim.history) {
    if (rec.evaluated()) {
      result.footprint.push_back(
          {rec.iteration, rec.accuracy, rec.cumulative_upload_bytes});
    }
  }
  return result;
}

ClusterResult FlCluster::run_single_master(
    const fl::TrainerCheckpoint* resume_from) {
  const std::size_t num_workers = clients_.size();
  Channel master_inbox;
  FaultStats fault_stats;
  // Declared after everything its threads use, so that on every exit path
  // it shuts the workers down and joins them first.
  WorkerGroup workers(clients_, *filter_, options_);
  const WorkerStats& worker_stats = workers.stats();
  const CodecPlane& codecs = workers.codecs();
  ByteMeter downlink_meter;

  ClusterResult result;
  std::vector<float> initial(dim_);
  // clients_.front() is also owned by worker thread k=0, but workers only
  // touch clients after receiving a frame; reading initial params here
  // happens-before the first send.
  clients_.front()->get_params(initial);
  fl::RoundCommitter committer(options_.fl, num_workers, std::move(initial));
  RoundLedger ledger(num_workers);
  // Consecutive *deadline-expired* rounds a worker was invited to but did
  // not answer.  Deliberately not `t - last_acked`: a worker that answers
  // slowly and keeps losing first_k_reports races is late, not crashed, so
  // K-committed rounds never count as misses (see RecoveryOptions).
  std::vector<std::uint64_t> stale_misses(num_workers, 0);
  std::size_t start_t = 1;

  // --- Resume: restore all mutable state before any worker thread starts
  // (no happens-before subtleties: the threads do not exist yet) ---
  if (resume_from != nullptr) {
    const fl::TrainerCheckpoint& ck = *resume_from;
    committer.restore(ck);
    workers.restore(ck);
    const fl::ClusterMeterState& m = ck.meters;
    // A resumed worker has trivially "answered" every round up to the
    // checkpoint — without this, staleness suspicion would fire on the
    // first resumed rounds.
    ledger.resume(ck.iteration, m.simulated_transfer_seconds);
    downlink_meter.restore(m.downlink_bytes, m.downlink_messages,
                           m.downlink_retransmitted);
    start_t = static_cast<std::size_t>(ck.iteration) + 1;
  }

  // --- Worker threads: the "slaves" of the paper's implementation, each
  // with one uplink to this master ---
  workers.start(1, [&](std::size_t k, std::uint32_t) {
    return FaultyChannel(master_inbox, options_.fault.uplink_for(k),
                         options_.fault.link_rng(k, /*is_uplink=*/true),
                         &fault_stats);
  }, [&] { master_inbox.close(); });

  // --- Master loop (Algorithm 1 GlobalOptimization over the wire) ---
  const RecoveryOptions& rec_opt = options_.recovery;
  const bool bounded = rec_opt.round_timeout_s > 0.0;
  // Backoff-jitter stream: salted far outside the link_rng namespace
  // (worker*2 + dir) so it never collides with a fault stream.
  util::Rng jitter_rng = util::Rng(options_.fault.seed).split(0x6a177e5ULL);
  std::vector<FaultyChannel> downlinks;
  downlinks.reserve(num_workers);
  for (std::size_t k = 0; k < num_workers; ++k) {
    downlinks.emplace_back(workers.inbox(k), options_.fault.downlink_for(k),
                           options_.fault.link_rng(k, /*is_uplink=*/false),
                           &fault_stats);
  }
  std::uint64_t master_redundant = 0;
  std::uint64_t master_corrupt = 0;
  std::uint64_t master_retransmits = 0;

  // Serializes every piece of trainer state the master owns or — because
  // the round is quiesced — may safely read from the workers.
  const auto snapshot = [&](std::size_t t) {
    fl::TrainerCheckpoint ck = committer.checkpoint(t);
    // Quiesced (see the checkpoint call site): every worker replied this
    // round, so reading its client and codec is ordered after its last
    // training and encode.
    ck.client_state = workers.client_states();
    ck.compressor_state = workers.codec_states();
    ck.compressor_state.resize(num_workers);  // dense: one empty state each
    fl::ClusterMeterState& m = ck.meters;
    const ByteMeter& uplink_meter = worker_stats.uplink;
    m.uplink_bytes = uplink_meter.total_bytes();
    m.uplink_messages = uplink_meter.messages();
    m.uplink_retransmitted = uplink_meter.retransmitted_bytes();
    m.downlink_bytes = downlink_meter.total_bytes();
    m.downlink_messages = downlink_meter.messages();
    m.downlink_retransmitted = downlink_meter.retransmitted_bytes();
    m.upload_messages =
        worker_stats.upload_frames.load(std::memory_order_relaxed);
    m.elimination_messages =
        worker_stats.elimination_frames.load(std::memory_order_relaxed);
    m.simulated_transfer_seconds = ledger.transfer_seconds();
    return ck;
  };

  for (std::size_t t = start_t; t <= options_.fl.max_iterations; ++t) {
    const std::vector<std::byte> frame =
        make_broadcast(t, /*leader_id=*/0, committer, options_.fl, codecs);
    // Invited = alive and not quarantined: the master no longer broadcasts
    // to quarantined workers, so they stop training (and stop costing
    // downlink bytes) the moment they are tripped.
    const std::size_t active_count = ledger.open(t, committer, frame.size());
    if (active_count == 0) break;
    const auto quorum_needed = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(
            std::ceil(rec_opt.quorum * static_cast<double>(active_count))));
    bool round_timed_out = false;
    bool k_committed = false;

    int attempt = 0;
    for (;;) {
      // (Re)transmit this round's broadcast to every unanswered worker.
      for (std::size_t k = 0; k < num_workers; ++k) {
        if (!ledger.awaits(k)) continue;
        if (attempt == 0) {
          downlink_meter.record(frame.size());
        } else {
          downlink_meter.record_retransmit(frame.size());
          ++master_retransmits;
        }
        downlinks[k].send(frame);
      }

      // Gather replies until every pending worker answered or — in the
      // bounded regime — the attempt deadline expires.
      double deadline_scale = std::pow(rec_opt.backoff, attempt);
      if (rec_opt.backoff_jitter > 0.0) {
        deadline_scale *= 1.0 + rec_opt.backoff_jitter * jitter_rng.uniform();
      }
      const auto deadline =
          Clock::now() +
          seconds_to_duration(rec_opt.round_timeout_s * deadline_scale);
      while (ledger.pending() > 0) {
        std::optional<std::vector<std::byte>> reply_frame;
        if (bounded) {
          const auto now = Clock::now();
          if (now >= deadline) break;
          reply_frame = master_inbox.recv_for(deadline - now);
          if (!reply_frame) {
            workers.rethrow_error();  // closed by a failed worker
            break;                    // deadline expired
          }
        } else {
          reply_frame = master_inbox.recv();
          if (!reply_frame) {
            workers.rethrow_error();
            throw std::runtime_error("FlCluster: master inbox closed early");
          }
        }
        const auto payload = try_open_frame(*reply_frame);
        std::optional<Reply> reply;
        if (payload) reply = read_reply(*payload, workers);
        if (!reply) {
          ++master_corrupt;
          continue;
        }
        if (reply->iteration > t) {
          throw std::runtime_error("FlCluster: reply from a future round");
        }
        const std::size_t k = reply->client_id;
        if (!ledger.expects(reply->iteration, k)) {
          // A late reply to an already-committed round, or a duplicate of
          // one accepted this round — idempotently discarded (and, for
          // codec frames, discarded *before* any decode touches state).
          ++master_redundant;
          continue;
        }
        RoundLedger::Answer answer{.upload = reply->is_upload(),
                                   .score = reply->score,
                                   .wire_bytes = reply_frame->size()};
        if (answer.upload) {
          // Decoded through worker k's own codec (stateful decoders, such
          // as the codebook cache, are allowed on a single master).
          answer.update = reply_update(*reply, codecs.at(k), dim_);
        }
        ledger.accept(t, k, std::move(answer));
        if (rec_opt.first_k_reports > 0 &&
            ledger.accepted() >= rec_opt.first_k_reports &&
            ledger.pending() > 0) {
          // Over-selection: the Kth reply commits the round right now.
          // The stragglers' late replies carry this round's iteration and
          // are discarded idempotently once the round has closed.
          k_committed = true;
          break;
        }
      }
      if (k_committed) {
        ++result.faults.over_select_commits;
        break;
      }
      if (ledger.pending() == 0) break;  // every live worker answered

      round_timed_out = true;
      if (ledger.accepted() >= quorum_needed) {
        // Quorum reached: commit now; the unanswered workers are late for
        // this round and will re-sync on the next broadcast.
        break;
      }
      if (attempt + 1 >= rec_opt.max_attempts) {
        // Retransmit budget exhausted below quorum: the silent workers are
        // declared crashed (crash-stop suspicion) and the round commits
        // with whatever answered.
        for (std::size_t k = 0; k < num_workers; ++k) {
          if (ledger.awaits(k)) ledger.crash(k);
        }
        break;
      }
      ++attempt;
    }

    if (round_timed_out) ++result.faults.timed_out_rounds;
    const bool missing = ledger.missed();
    if (missing && !k_committed) ++result.faults.quorum_rounds;
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (ledger.answered(k)) {
        stale_misses[k] = 0;
      } else if (ledger.awaits(k) && !k_committed) {
        ++stale_misses[k];
      }
      // Losing an over-selected race leaves the counter untouched: only a
      // deadline the worker actually blew is evidence towards a crash.
    }

    const fl::RoundOutcome outcome = ledger.close(
        committer, evaluator_, workers.local_samples(), options_);

    if (rec_opt.suspect_after_stale_rounds > 0) {
      for (std::size_t k = 0; k < num_workers; ++k) {
        if (ledger.alive(k) && !committer.quarantined(k) &&
            stale_misses[k] >= static_cast<std::uint64_t>(
                                   rec_opt.suspect_after_stale_rounds)) {
          ledger.crash(k);
        }
      }
    }

    // Checkpoint only when the round is quiesced: every worker this round
    // answered (each reply happens-before this point via the channel), and
    // no worker was ever declared crashed (a suspected worker's thread may
    // still be running, so its client state cannot be read safely).
    const bool quiesced = !missing && ledger.crashed().empty();
    if (quiesced && committer.checkpoint_due(t, outcome.stop)) {
      fl::save_checkpoint_file(options_.fl.checkpoint_path, snapshot(t));
    }
    if (outcome.stop) break;
  }

  // Drain stray frames (late replies, injected duplicates) so the
  // receiver-side accounting covers every frame that was delivered — this
  // is what keeps the counters reproducible for a fixed seed.
  while (auto stray = master_inbox.recv_for(Clock::duration::zero())) {
    if (try_open_frame(*stray)) {
      ++master_redundant;
    } else {
      ++master_corrupt;
    }
  }

  workers.stop();
  workers.rethrow_error();

  for (const fl::ShardStats& shard : committer.aggregator().stats()) {
    result.shard_uplink_bytes.push_back(shard.bytes);
    result.shard_uploads.push_back(shard.uploads);
  }
  result.sim = committer.finish();
  result.simulated_transfer_seconds = ledger.transfer_seconds();
  result.faults.crashed_workers = ledger.crashed();
  result.faults.max_staleness_per_client = ledger.max_staleness();
  result.uplink_bytes = worker_stats.uplink.total_bytes();
  result.downlink_bytes = downlink_meter.total_bytes();
  result.uplink_retransmitted_bytes =
      worker_stats.uplink.retransmitted_bytes();
  result.downlink_retransmitted_bytes = downlink_meter.retransmitted_bytes();
  result.upload_messages = worker_stats.upload_frames.load();
  result.elimination_messages = worker_stats.elimination_frames.load();
  result.faults.frames_dropped = fault_stats.frames_dropped.load();
  result.faults.frames_corrupted = fault_stats.frames_corrupted.load();
  result.faults.frames_duplicated = fault_stats.frames_duplicated.load();
  result.faults.corrupt_rejected =
      master_corrupt + worker_stats.corrupt_rejected.load();
  result.faults.redundant_frames =
      master_redundant + worker_stats.redundant_frames.load();
  result.faults.retransmits =
      master_retransmits + worker_stats.retransmits.load();
  return result;
}

}  // namespace cmfl::net
