// Replicated control plane end-to-end: master failover must be invisible in
// the learning trajectory.
//
// The headline invariants (DESIGN.md §14):
//   * A fault-free replicated run is bit-identical to the single-master run
//     — replication changes where control state lives, not what it is.
//   * Killing the leader mid-round loses nothing: the surviving quorum
//     re-drives the round from the committed prefix and finishes it
//     bit-identically (params, history, and the accuracy-vs-bytes
//     footprint).
//   * Every replica independently writes the same checkpoint bytes, so
//     resume works from any replica's file.
//
// These tests run under the `failover` ctest label; bench/run_failover.sh
// runs them under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "net/cluster.h"

namespace cmfl::net {
namespace {

fl::ConvexTestbedSpec convex_spec() {
  fl::ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  spec.local_steps = 3;
  spec.gradient_noise = 0.02;
  return spec;
}

ClusterOptions base_options() {
  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 8;
  opt.fl.eval_every = 2;
  return opt;
}

ClusterOptions replicated(ClusterOptions opt) {
  opt.replication.replicas = 3;
  return opt;
}

ClusterResult run_once(const ClusterOptions& opt) {
  fl::ConvexWorkload w = fl::make_convex_workload(convex_spec());
  FlCluster cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.3)),
      w.evaluator, opt);
  return cluster.run();
}

/// Everything the tallied replies decide: the records, the model, the
/// per-client counters, Φ, the footprint and the reply-frame counts.
void expect_same_trajectory(const ClusterResult& a, const ClusterResult& b) {
  ASSERT_EQ(a.sim.history.size(), b.sim.history.size());
  for (std::size_t i = 0; i < a.sim.history.size(); ++i) {
    EXPECT_TRUE(fl::bitwise_equal(a.sim.history[i], b.sim.history[i]))
        << "iteration record " << i;
  }
  EXPECT_EQ(a.sim.final_params, b.sim.final_params);
  EXPECT_EQ(a.sim.eliminations_per_client, b.sim.eliminations_per_client);
  EXPECT_EQ(a.sim.uploads_per_client, b.sim.uploads_per_client);
  EXPECT_EQ(a.sim.total_rounds, b.sim.total_rounds);
  EXPECT_EQ(a.sim.uploaded_bytes, b.sim.uploaded_bytes);
  EXPECT_EQ(a.simulated_transfer_seconds, b.simulated_transfer_seconds);
  ASSERT_EQ(a.footprint.size(), b.footprint.size());
  for (std::size_t i = 0; i < a.footprint.size(); ++i) {
    EXPECT_EQ(a.footprint[i].iteration, b.footprint[i].iteration);
    EXPECT_EQ(a.footprint[i].accuracy, b.footprint[i].accuracy);
    EXPECT_EQ(a.footprint[i].uplink_bytes, b.footprint[i].uplink_bytes);
  }
  EXPECT_EQ(a.upload_messages, b.upload_messages);
  EXPECT_EQ(a.elimination_messages, b.elimination_messages);
}

TEST(ReplicatedCluster, OptionValidation) {
  auto make = [](const ClusterOptions& opt) {
    fl::ConvexWorkload w = fl::make_convex_workload(convex_spec());
    FlCluster cluster(std::move(w.clients),
                      std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                      opt);
  };
  {
    auto opt = base_options();
    opt.replication.replicas = 2;  // a crash would lose quorum
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  // Both masters run one round policy: the replicated cohort is the Reply
  // entries applied before a RoundCommit (the *MatchTheSingleMaster tests).
  {
    auto opt = replicated(base_options());
    opt.recovery.quorum = 0.5;
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_NO_THROW(make(opt));
  }
  {
    auto opt = replicated(base_options());
    opt.recovery.first_k_reports = 2;
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_NO_THROW(make(opt));
  }
  {
    auto opt = replicated(base_options());
    opt.recovery.suspect_after_stale_rounds = 2;
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_NO_THROW(make(opt));
  }
  {
    auto opt = base_options();  // schedules need replication
    opt.fault.leader_crash.push_back({2, 0});
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = replicated(base_options());
    // Two scheduled kills on 3 replicas would leave no quorum.
    opt.fault.leader_crash.push_back({2, 0});
    opt.fault.leader_crash.push_back({4, 0});
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = replicated(base_options());
    opt.fault.replica_partition[7] = {2, 4};  // replica id out of range
    opt.recovery.round_timeout_s = 0.1;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = replicated(base_options());
    opt.replication.tick_interval_s = 0.0;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  for (const double tick : {std::nan(""), HUGE_VAL}) {
    auto opt = replicated(base_options());
    opt.replication.tick_interval_s = tick;
    EXPECT_THROW(make(opt), std::invalid_argument) << tick;
  }
  { EXPECT_NO_THROW(make(replicated(base_options()))); }
}

TEST(ReplicatedCluster, FaultFreeRunMatchesSingleMasterBitForBit) {
  const ClusterResult single = run_once(base_options());
  const ClusterResult triple = run_once(replicated(base_options()));

  expect_same_trajectory(single, triple);
  // Fault-free: physical data-plane traffic equals the logical accounting.
  EXPECT_EQ(triple.uplink_bytes, single.uplink_bytes);
  EXPECT_EQ(triple.downlink_bytes, single.downlink_bytes);
  EXPECT_EQ(triple.uplink_retransmitted_bytes, 0u);
  EXPECT_EQ(triple.downlink_retransmitted_bytes, 0u);
  // The control plane is real and metered apart from the data plane.
  EXPECT_GT(triple.faults.elections_held, 0u);
  EXPECT_GT(triple.faults.log_entries_replicated, 0u);
  EXPECT_GT(triple.control_plane_bytes, 0u);
  EXPECT_EQ(triple.faults.leader_crashes, 0u);
  EXPECT_EQ(single.control_plane_bytes, 0u);
  EXPECT_EQ(single.faults.elections_held, 0u);
}

TEST(ReplicatedCluster, LeaderCrashMidRoundRecoversBitIdentically) {
  // The tentpole property.  The leader of round 3 dies after accepting two
  // of four replies — with the round's control state partially replicated.
  // The surviving quorum elects a new leader, which re-broadcasts the open
  // round; workers re-send their cached (byte-identical) replies; the round
  // commits exactly as if nothing had happened.
  const ClusterResult baseline = run_once(replicated(base_options()));

  auto opt = replicated(base_options());
  opt.fault.leader_crash.push_back({3, 2});
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult crashed = run_once(opt);

  expect_same_trajectory(baseline, crashed);
  EXPECT_EQ(crashed.faults.leader_crashes, 1u);
  // The original election plus at least the failover election.
  EXPECT_GE(crashed.faults.elections_held, 2u);
  EXPECT_TRUE(crashed.faults.crashed_workers.empty());
  // Recovery traffic is visible in the *physical* meters only: the new
  // leader's re-broadcasts and the workers' cached re-uploads.
  EXPECT_GT(crashed.downlink_retransmitted_bytes, 0u);
  EXPECT_GT(crashed.uplink_retransmitted_bytes, 0u);
  EXPECT_GT(crashed.faults.retransmits, 0u);
  // ...and never in the logical accounting the trajectory is built from.
  EXPECT_EQ(crashed.sim.uploaded_bytes, baseline.sim.uploaded_bytes);
}

TEST(ReplicatedCluster, LeaderCrashRightAfterBroadcastRecovers) {
  // after_replies == 0: the round dies before any reply lands.  Every
  // worker's reply goes to a dead replica; the new leader re-broadcasts and
  // collects all four cached replies.
  const ClusterResult baseline = run_once(replicated(base_options()));

  auto opt = replicated(base_options());
  opt.fault.leader_crash.push_back({2, 0});
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult crashed = run_once(opt);

  expect_same_trajectory(baseline, crashed);
  EXPECT_EQ(crashed.faults.leader_crashes, 1u);
}

TEST(ReplicatedCluster, PartitionedReplicaIsCaughtUpBySnapshot) {
  // Replica 1 loses control-plane connectivity while rounds 2..5 are in
  // flight.  The survivors keep committing (2 of 3), compact the log at
  // every round commit, and after the heal the only way back is a snapshot
  // transfer.  Training never notices.
  const ClusterResult baseline = run_once(replicated(base_options()));

  auto opt = replicated(base_options());
  opt.fault.replica_partition[1] = {2, 5};
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult partitioned = run_once(opt);

  expect_same_trajectory(baseline, partitioned);
  EXPECT_GE(partitioned.faults.snapshot_transfers, 1u);
  EXPECT_EQ(partitioned.faults.leader_crashes, 0u);
  EXPECT_TRUE(partitioned.faults.crashed_workers.empty());
}

TEST(ReplicatedCluster, CodecRunsMatchTheSingleMasterBitForBit) {
  // Codecs ride the replicated control plane: the leader decodes each
  // CodecUpload with its private stateless decoder before proposing the
  // dense reconstruction into the Raft log, so the replicated trajectory —
  // and the encoded-frame byte accounting — must equal the single-master
  // run exactly.
  for (const char* spec : {"sign", "quant:8", "topk:0.1"}) {
    SCOPED_TRACE(spec);
    auto opt = base_options();
    opt.fl.codec.spec = spec;
    const ClusterResult single = run_once(opt);
    const ClusterResult triple = run_once(replicated(opt));
    expect_same_trajectory(single, triple);
    EXPECT_EQ(triple.uplink_bytes, single.uplink_bytes);
  }
}

TEST(ReplicatedCluster, CodecRunSurvivesLeaderFailoverBitIdentically) {
  // Failover with a stateful *encoder*: the quant codec's rounding RNG
  // advances once per trained round and the worker re-sends its cached
  // encoded reply to the new leader, so a mid-round leader crash changes
  // nothing in the trajectory.
  auto opt = replicated(base_options());
  opt.fl.codec.spec = "quant:8";
  const ClusterResult baseline = run_once(opt);

  auto crash_opt = opt;
  crash_opt.fault.leader_crash.push_back({3, 2});
  crash_opt.recovery.round_timeout_s = 0.5;
  crash_opt.recovery.max_attempts = 10;
  const ClusterResult crashed = run_once(crash_opt);

  expect_same_trajectory(baseline, crashed);
  EXPECT_EQ(crashed.faults.leader_crashes, 1u);
  EXPECT_GT(crashed.uplink_retransmitted_bytes, 0u);
}

TEST(ReplicatedCluster, LinkFaultsOnTheDataPlaneLeaveTheTrajectoryUnchanged) {
  // Drops, bit flips and duplicates on every worker link in both
  // directions: the leader retransmits, the workers re-send cached
  // replies, both sides discard what they already saw, and every round
  // still commits the fault-free reply set.
  const ClusterResult clean = run_once(base_options());

  auto opt = replicated(base_options());
  for (LinkFaults* link : {&opt.fault.downlink, &opt.fault.uplink}) {
    link->drop_prob = 0.15;
    link->corrupt_prob = 0.05;
    link->duplicate_prob = 0.05;
  }
  opt.fault.seed = 99;
  opt.recovery.round_timeout_s = 0.15;
  opt.recovery.backoff = 1.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult faulty = run_once(opt);

  expect_same_trajectory(clean, faulty);
  EXPECT_TRUE(faulty.faults.crashed_workers.empty());
  EXPECT_GT(faulty.faults.frames_dropped, 0u);
  EXPECT_GT(faulty.faults.frames_corrupted, 0u);
  EXPECT_GT(faulty.faults.frames_duplicated, 0u);
  EXPECT_GT(faulty.faults.corrupt_rejected, 0u);
  EXPECT_GT(faulty.faults.retransmits, 0u);
}

TEST(ReplicatedCluster, CrashStopWorkerIsDeclaredDeadAsOnTheSingleMaster) {
  // Worker 2 dies before training round 4.  Once the retransmit budget is
  // spent the leader proposes a WorkerCrash entry, and the round commits
  // without it — exactly where the single master declares it crashed.
  auto opt = base_options();
  opt.fault.crash_at_iteration[2] = 4;
  opt.recovery.round_timeout_s = 0.05;
  opt.recovery.backoff = 1.0;
  opt.recovery.max_attempts = 2;
  const ClusterResult single = run_once(opt);
  const ClusterResult triple = run_once(replicated(opt));

  expect_same_trajectory(single, triple);
  EXPECT_EQ(single.faults.crashed_workers, std::vector<std::uint32_t>{2});
  EXPECT_EQ(triple.faults.crashed_workers, std::vector<std::uint32_t>{2});
  EXPECT_EQ(triple.faults.quorum_rounds, single.faults.quorum_rounds);
  EXPECT_EQ(triple.faults.max_staleness_per_client,
            single.faults.max_staleness_per_client);
}

struct PolicyRuns {
  ClusterResult single;
  std::vector<std::string> replica_files;  // the bytes of each one written
};

/// Runs `opt` on the single master and on 3 replicas with a checkpoint
/// every round, and checks the two agree on the trajectory and on every
/// recovery outcome both masters count by one definition.
PolicyRuns expect_policy_matches_single_master(ClusterOptions opt,
                                               const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  const auto remove_all = [&path] {
    std::remove(path.c_str());
    for (int r = 0; r < 3; ++r) {
      std::remove((path + ".replica" + std::to_string(r)).c_str());
    }
  };
  remove_all();
  opt.fl.checkpoint_every = 1;
  opt.fl.checkpoint_path = path;
  const ClusterResult single = run_once(opt);
  const ClusterResult triple = run_once(replicated(opt));

  expect_same_trajectory(single, triple);
  EXPECT_EQ(triple.faults.crashed_workers, single.faults.crashed_workers);
  EXPECT_EQ(triple.faults.quorum_rounds, single.faults.quorum_rounds);
  EXPECT_EQ(triple.faults.over_select_commits,
            single.faults.over_select_commits);
  EXPECT_EQ(triple.faults.max_staleness_per_client,
            single.faults.max_staleness_per_client);

  PolicyRuns runs{single, {}};
  for (int r = 0; r < 3; ++r) {
    std::ifstream in(path + ".replica" + std::to_string(r), std::ios::binary);
    if (!in.good()) continue;
    runs.replica_files.emplace_back(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
  }
  // A replica writes a checkpoint exactly when the single master does:
  // only a quiesced round may read worker-owned client state.
  EXPECT_EQ(std::ifstream(path, std::ios::binary).good(),
            !runs.replica_files.empty());
  remove_all();
  return runs;
}

TEST(ReplicatedCluster, QuorumAndSuspicionMatchTheSingleMaster) {
  // Worker 2 dies before round 4.  At quorum 0.5 rounds 4 and 5 commit at
  // their deadline without it, and after its second missed deadline both
  // masters declare it dead before round 6 opens.  The deadline is
  // generous, so the live workers never miss it.
  auto opt = base_options();
  opt.fault.crash_at_iteration[2] = 4;
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.quorum = 0.5;
  opt.recovery.suspect_after_stale_rounds = 2;
  const PolicyRuns runs =
      expect_policy_matches_single_master(opt, "replicated_quorum_ck.bin");
  EXPECT_EQ(runs.single.faults.crashed_workers,
            std::vector<std::uint32_t>{2});
  EXPECT_EQ(runs.single.faults.quorum_rounds, 2u);
  // Rounds 1-3 quiesced; every replica wrote the same bytes.
  const std::vector<std::string>& files = runs.replica_files;
  ASSERT_EQ(files.size(), 3u);
  EXPECT_FALSE(files[0].empty());
  EXPECT_EQ(files[1], files[0]);
  EXPECT_EQ(files[2], files[0]);
}

TEST(ReplicatedCluster, FirstKReportsMatchTheSingleMaster) {
  // Worker 3 answers every broadcast 0.3 s late; the third reply commits
  // each round, well inside the 2 s deadline.  The straggler is still
  // training when each round closes, so no round is quiesced and neither
  // master may write a checkpoint.
  auto opt = base_options();
  opt.fl.max_iterations = 4;
  opt.fault.straggler_delay_s[3] = 0.3;
  opt.recovery.round_timeout_s = 2.0;
  opt.recovery.first_k_reports = 3;
  opt.recovery.max_attempts = 30;
  const PolicyRuns runs =
      expect_policy_matches_single_master(opt, "replicated_first_k_ck.bin");
  EXPECT_EQ(runs.single.faults.over_select_commits, 4u);
  EXPECT_EQ(runs.single.faults.quorum_rounds, 0u);
  // The straggler's four late replies are not tallied on either master.
  EXPECT_EQ(runs.single.upload_messages + runs.single.elimination_messages,
            4u * 3u);
  EXPECT_TRUE(runs.replica_files.empty());
}

TEST(ReplicatedCluster, CheckpointWriteErrorsPropagateFromRun) {
  // A checkpoint file that cannot be written fails the run with the
  // writer's exception: thrown on the caller's thread while worker threads
  // run (single master), or on a replica thread (replicated).
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cmfl_missing_ck_dir";
  std::filesystem::remove_all(dir);
  for (const int replicas : {0, 3}) {
    SCOPED_TRACE(replicas);
    auto opt = base_options();
    opt.replication.replicas = replicas;
    opt.fl.checkpoint_every = 2;
    opt.fl.checkpoint_path = (dir / "ck.bin").string();
    EXPECT_THROW(run_once(opt), std::runtime_error);
  }
}

TEST(ReplicatedCluster, StatefulDecodeCodecsAreRejectedUpFront) {
  // The codebook codec's decode() caches state, so after a failover the new
  // leader could not decode an index-only payload it never saw the refresh
  // for.  The constructor must refuse the combination rather than fail
  // mid-run — and accept the same codec on a single master.
  auto opt = replicated(base_options());
  opt.fl.codec.spec = "codebook:8,4";
  fl::ConvexWorkload w = fl::make_convex_workload(convex_spec());
  EXPECT_THROW(
      FlCluster(std::move(w.clients),
                std::make_unique<core::AcceptAllFilter>(), w.evaluator, opt),
      std::invalid_argument);

  opt.replication.replicas = 0;
  fl::ConvexWorkload w2 = fl::make_convex_workload(convex_spec());
  EXPECT_NO_THROW(FlCluster(std::move(w2.clients),
                            std::make_unique<core::AcceptAllFilter>(),
                            w2.evaluator, opt));
}

TEST(ReplicatedCluster, EveryReplicaWritesTheSameCheckpointAndResumeWorks) {
  const std::string ref_path =
      ::testing::TempDir() + "replicated_ck_ref.bin";
  const std::string path = ::testing::TempDir() + "replicated_ck.bin";
  for (int r = 0; r < 3; ++r) {
    std::remove((ref_path + ".replica" + std::to_string(r)).c_str());
    std::remove((path + ".replica" + std::to_string(r)).c_str());
  }

  auto opt = replicated(base_options());  // 8 iterations, eval_every 2
  opt.fl.checkpoint_every = 4;
  opt.fl.checkpoint_path = ref_path;
  const ClusterResult uninterrupted = run_once(opt);

  {
    auto first_half = opt;
    first_half.fl.max_iterations = 4;
    first_half.fl.checkpoint_path = path;
    run_once(first_half);
  }

  // All three replicas persisted the round-4 checkpoint, byte-for-byte
  // identically — each one serialized the same replicated state machine.
  auto file_bytes = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << p;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string replica0 = file_bytes(path + ".replica0");
  EXPECT_FALSE(replica0.empty());
  EXPECT_EQ(file_bytes(path + ".replica1"), replica0);
  EXPECT_EQ(file_bytes(path + ".replica2"), replica0);

  // Resume from an arbitrary replica's file; the finished trajectory must
  // match the uninterrupted replicated run exactly.
  const fl::TrainerCheckpoint ck =
      fl::load_checkpoint_file(path + ".replica2");
  EXPECT_EQ(ck.iteration, 4u);
  auto resume_opt = opt;
  resume_opt.fl.checkpoint_path = path;
  fl::ConvexWorkload w = fl::make_convex_workload(convex_spec());
  FlCluster resumed_cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.3)),
      w.evaluator, resume_opt);
  const ClusterResult resumed = resumed_cluster.resume(ck);

  expect_same_trajectory(uninterrupted, resumed);
  for (int r = 0; r < 3; ++r) {
    std::remove((ref_path + ".replica" + std::to_string(r)).c_str());
    std::remove((path + ".replica" + std::to_string(r)).c_str());
  }
}

TEST(ReplicatedCluster, RedirectAndLeaderIdFramesRoundTrip) {
  // Wire-level check for the two protocol additions: BroadcastMsg carries
  // the sending replica's id, and RedirectMsg tells a worker where to
  // re-send a reply that landed on a deposed leader.
  BroadcastMsg bc;
  bc.seq = 9;
  bc.iteration = 9;
  bc.leader_id = 2;
  bc.global_params = {1.0f, 2.0f};
  bc.global_update = {0.5f};
  bc.learning_rate = 0.25f;
  const Message round_tripped = decode(encode(Message(bc)));
  const auto& back = std::get<BroadcastMsg>(round_tripped);
  EXPECT_EQ(back.leader_id, 2u);
  EXPECT_EQ(back.seq, 9u);
  EXPECT_EQ(back.global_params, bc.global_params);

  RedirectMsg rd;
  rd.iteration = 7;
  rd.leader_id = 1;
  const Message rd_back = decode(encode(Message(rd)));
  const auto& rd2 = std::get<RedirectMsg>(rd_back);
  EXPECT_EQ(rd2.iteration, 7u);
  EXPECT_EQ(rd2.leader_id, 1u);
  // Broadcast frame size must not depend on which replica leads — the
  // RoundStart log entry carries one byte count all replicas account.
  auto from_leader = [&](std::uint32_t id) {
    BroadcastMsg m = bc;
    m.leader_id = id;
    return encode(Message(m)).size();
  };
  EXPECT_EQ(from_leader(0), from_leader(2));
}

}  // namespace
}  // namespace cmfl::net
