#include "net/cluster.h"

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
  if (!std::isfinite(rec.round_timeout_s) || rec.round_timeout_s < 0.0) {
    throw std::invalid_argument(
        "FlCluster: round_timeout_s must be finite and >= 0");
  }
  if (rec.max_attempts < 1) {
    throw std::invalid_argument("FlCluster: max_attempts must be >= 1");
  }
  if (!std::isfinite(rec.backoff) || rec.backoff < 1.0) {
    throw std::invalid_argument("FlCluster: backoff must be finite and >= 1");
  }
  if (!(rec.quorum > 0.0 && rec.quorum <= 1.0)) {
    throw std::invalid_argument("FlCluster: quorum must lie in (0, 1]");
  }
  if (rec.suspect_after_stale_rounds < 0) {
    throw std::invalid_argument(
        "FlCluster: suspect_after_stale_rounds must be >= 0");
  }
  if (!std::isfinite(rec.backoff_jitter) || rec.backoff_jitter < 0.0) {
    throw std::invalid_argument(
        "FlCluster: backoff_jitter must be finite and >= 0");
  }
  // The last attempt's deadline must fit a Clock::duration, with room for
  // `now + deadline`: half the clock's range, ~146 years.
  const double last_deadline_s = rec.round_timeout_s *
                                 std::pow(rec.backoff, rec.max_attempts - 1) *
                                 (1.0 + rec.backoff_jitter);
  if (rec.round_timeout_s > 0.0 &&
      !(last_deadline_s <=
        std::chrono::duration<double>(Clock::duration::max()).count() / 2)) {
    throw std::invalid_argument(
        "FlCluster: the last attempt's round deadline outgrows the clock");
  }
  if (options_.fault.enabled() && rec.round_timeout_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: fault injection requires a positive recovery "
        "round_timeout_s (a dropped frame would hang the round forever)");
  }
  // Validates the codec spec eagerly, before any thread exists.
  const codec::CodecPlane codecs(options_.fl.codec);
  const ReplicationOptions& rep = options_.replication;
  if (rep.replicas > 0 && codecs.stateful_decode()) {
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
  if (options_.fl.sharding.shards > 1) {
    throw std::invalid_argument(
        "FlCluster: sharded aggregation is not supported with a replicated "
        "control plane (the replicated master applies uploads through its "
        "Raft-ordered state machine)");
  }
  if (!std::isfinite(rep.tick_interval_s) || rep.tick_interval_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: replication tick_interval_s must be positive and "
        "finite");
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
  if (resume_from != nullptr && resume_from->sched.engaged != 0) {
    throw std::invalid_argument(
        "FlCluster: checkpoint was written by an in-process run");
  }
  ClusterResult result =
      options_.replication.replicas > 0
          ? run_replicated_cluster(clients_, *filter_, evaluator_, options_,
                                   dim_, resume_from)
          : run_single_master(resume_from);
  // One point per evaluated round, read off the history (which a resumed
  // run restores with the rest of the committed state), and the reply
  // frames the rounds tallied, read off the per-client counters.
  for (const fl::IterationRecord& rec : result.sim.history) {
    if (rec.evaluated()) {
      result.footprint.push_back(
          {rec.iteration, rec.accuracy, rec.cumulative_upload_bytes});
    }
  }
  for (const std::size_t n : result.sim.uploads_per_client) {
    result.upload_messages += n;
  }
  for (const std::size_t n : result.sim.eliminations_per_client) {
    result.elimination_messages += n;
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
  ByteMeter downlink_meter;

  ClusterResult result;
  std::vector<float> initial(dim_);
  // clients_.front() is also owned by worker thread k=0, but workers only
  // touch clients after receiving a frame; reading initial params here
  // happens-before the first send.
  clients_.front()->get_params(initial);
  fl::RoundCommitter committer(options_.fl, num_workers, std::move(initial));
  RoundLedger ledger(num_workers);
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
  // Backoff-jitter stream: salted far outside the link_rng namespace
  // (worker*2 + dir) so it never collides with a fault stream.
  RoundDriver driver(options_.recovery,
                     util::Rng(options_.fault.seed).split(0x6a177e5ULL));
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
    ck.codec_state = workers.codecs().states();
    fl::ClusterMeterState& m = ck.meters;
    const ByteMeter& uplink_meter = worker_stats.uplink;
    m.uplink_bytes = uplink_meter.total_bytes();
    m.uplink_messages = uplink_meter.messages();
    m.uplink_retransmitted = uplink_meter.retransmitted_bytes();
    m.downlink_bytes = downlink_meter.total_bytes();
    m.downlink_messages = downlink_meter.messages();
    m.downlink_retransmitted = downlink_meter.retransmitted_bytes();
    m.simulated_transfer_seconds = ledger.transfer_seconds();
    return ck;
  };

  for (std::size_t t = start_t; t <= options_.fl.max_iterations; ++t) {
    const std::vector<std::byte> frame =
        make_broadcast(t, /*leader_id=*/0, committer, options_.fl,
                       workers.codecs());
    // Invited = alive and not quarantined: the master no longer broadcasts
    // to quarantined workers, so they stop training (and stop costing
    // downlink bytes) the moment they are tripped.
    if (ledger.open(t, committer, frame.size()) == 0) break;
    std::optional<RoundClose> close;
    const auto apply = [&](const RoundDriver::Step& step) {
      master_retransmits +=
          send_broadcast(step, frame, downlinks, downlink_meter);
      for (const std::uint32_t k : step.crash) ledger.crash(k);
      close = step.commit;
    };
    apply(driver.open(ledger, Clock::now()));
    while (!close) {
      // Gather replies until the driver commits the round, handing it each
      // expired deadline.
      std::optional<std::vector<std::byte>> reply_frame;
      if (const auto deadline = driver.deadline()) {
        const auto now = Clock::now();
        if (now < *deadline) {
          reply_frame = master_inbox.recv_for(*deadline - now);
        }
        if (!reply_frame) {
          workers.rethrow_error();  // closed by a failed worker
          apply(driver.on_expiry(Clock::now()));
          continue;
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
        answer.update = reply_update(*reply, workers.codec(k), dim_);
      }
      ledger.accept(t, k, std::move(answer));
      apply(driver.on_reply(k));
    }

    const fl::RoundOutcome outcome = ledger.close(
        committer, evaluator_, workers.local_samples(), options_, *close);
    for (const std::uint32_t k :
         RoundDriver::suspects(options_.recovery, ledger, committer)) {
      ledger.crash(k);
    }
    if (ledger.quiesced(committer) &&
        committer.checkpoint_due(t, outcome.stop)) {
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
  result.faults.timed_out_rounds = ledger.timed_out_rounds();
  result.faults.quorum_rounds = ledger.quorum_rounds();
  result.faults.over_select_commits = ledger.over_select_commits();
  result.faults.crashed_workers = ledger.crashed();
  result.faults.max_staleness_per_client = ledger.max_staleness();
  result.uplink_bytes = worker_stats.uplink.total_bytes();
  result.downlink_bytes = downlink_meter.total_bytes();
  result.uplink_retransmitted_bytes =
      worker_stats.uplink.retransmitted_bytes();
  result.downlink_retransmitted_bytes = downlink_meter.retransmitted_bytes();
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
