// End-to-end cluster emulation: the message-passing run must agree with the
// in-memory simulation and account bytes exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/filter.h"
#include "fl/adversary.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "fl/round_commit.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "net/cluster.h"
#include "net/worker.h"

namespace cmfl::net {
namespace {

fl::DigitsMlpSpec small_spec() {
  fl::DigitsMlpSpec spec;
  spec.clients = 8;
  spec.train_samples = 240;
  spec.test_samples = 80;
  spec.hidden = {16};
  spec.digits.image_size = 8;
  spec.seed = 5;
  return spec;
}

ClusterOptions fast_options() {
  ClusterOptions opt;
  opt.fl.local_epochs = 2;
  opt.fl.batch_size = 5;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 12;
  opt.fl.eval_every = 4;
  return opt;
}

TEST(FlCluster, RunsAndAccountsMessages) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    fast_options());
  const ClusterResult r = cluster.run();
  // Vanilla: every worker answers every iteration with a full update.
  EXPECT_EQ(r.upload_messages, 8u * 12u);
  EXPECT_EQ(r.elimination_messages, 0u);
  EXPECT_EQ(r.sim.total_rounds, 8u * 12u);
  EXPECT_GT(r.uplink_bytes, 0u);
  EXPECT_GT(r.downlink_bytes, 0u);
  EXPECT_GT(r.simulated_transfer_seconds, 0.0);
  EXPECT_FALSE(r.footprint.empty());
}

TEST(FlCluster, UplinkBytesMatchFrameSizes) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  const std::size_t dim = w.param_count;
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    fast_options());
  const ClusterResult r = cluster.run();
  // Upload frame = 1 type + 4 seq + 8 iter + 4 client + 8 score + 8 len +
  // 4*dim, sealed with a 4-byte CRC.
  const std::size_t frame = 1 + 4 + 8 + 4 + 8 + 8 + 4 * dim + 4;
  EXPECT_EQ(r.uplink_bytes, r.upload_messages * frame);
}

TEST(FlCluster, CmflSendsEliminationFrames) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  FlCluster cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.5)),
      w.evaluator, fast_options());
  const ClusterResult r = cluster.run();
  EXPECT_GT(r.elimination_messages, 0u);
  EXPECT_EQ(r.upload_messages + r.elimination_messages, 8u * 12u);
  // Eliminations are counted per client.
  std::size_t counted = 0;
  for (std::size_t e : r.sim.eliminations_per_client) counted += e;
  EXPECT_EQ(counted, r.elimination_messages);
}

TEST(FlCluster, MatchesInMemorySimulation) {
  // Same workload, same filter, same options: the wire run and the
  // in-memory run must produce identical learning traces.
  auto opt = fast_options();
  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster cluster(
      std::move(w1.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w1.evaluator, opt);
  const ClusterResult wire = cluster.run();

  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  fl::SimulationOptions sim_opt = opt.fl;
  fl::FederatedSimulation sim(
      std::move(w2.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w2.evaluator, sim_opt);
  const fl::SimulationResult mem = sim.run();

  ASSERT_EQ(wire.sim.history.size(), mem.history.size());
  for (std::size_t i = 0; i < mem.history.size(); ++i) {
    EXPECT_EQ(wire.sim.history[i].uploads, mem.history[i].uploads);
  }
  EXPECT_EQ(wire.sim.final_params, mem.final_params);
}

TEST(FlCluster, ShardedIngestMatchesSingleMasterAndMetersPerShard) {
  // Sharding the upload pipeline must not change a single byte of the
  // trajectory or the wire accounting; it only adds per-shard meters.
  auto run_with = [](std::size_t shards) {
    auto opt = fast_options();
    opt.fl.sharding.shards = shards;
    fl::Workload w = fl::make_digits_mlp_workload(small_spec());
    FlCluster cluster(
        std::move(w.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w.evaluator, opt);
    return cluster.run();
  };
  const ClusterResult single = run_with(0);
  // shards == 0 means one shard, served by the master thread itself: it
  // ingests every upload.
  ASSERT_EQ(single.shard_uplink_bytes.size(), 1u);
  ASSERT_EQ(single.shard_uploads.size(), 1u);
  EXPECT_EQ(single.shard_uploads[0], single.upload_messages);

  for (const std::size_t s : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(s));
    const ClusterResult sharded = run_with(s);
    EXPECT_EQ(sharded.sim.final_params, single.sim.final_params);
    EXPECT_EQ(sharded.uplink_bytes, single.uplink_bytes);
    EXPECT_EQ(sharded.upload_messages, single.upload_messages);
    EXPECT_EQ(sharded.elimination_messages, single.elimination_messages);
    ASSERT_EQ(sharded.shard_uplink_bytes.size(), s);
    ASSERT_EQ(sharded.shard_uploads.size(), s);
    // Every accepted upload landed on exactly one shard; the per-shard
    // meters partition the upload wire bytes (eliminations are tiny status
    // frames and never enter the ingest pipeline).
    std::uint64_t uploads = 0;
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < s; ++i) {
      uploads += sharded.shard_uploads[i];
      bytes += sharded.shard_uplink_bytes[i];
    }
    EXPECT_EQ(uploads, sharded.upload_messages);
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, sharded.uplink_bytes);
  }
}

TEST(FlCluster, ShardingRejectsReplicatedControlPlane) {
  auto opt = fast_options();
  opt.fl.sharding.shards = 2;
  opt.replication.replicas = 3;
  opt.recovery.round_timeout_s = 1.0;
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  EXPECT_THROW(FlCluster(std::move(w.clients),
                         std::make_unique<core::AcceptAllFilter>(),
                         w.evaluator, opt),
               std::invalid_argument);
}

TEST(FlCluster, FootprintGrowsAcrossEvaluations) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    fast_options());
  const ClusterResult r = cluster.run();
  for (std::size_t i = 1; i < r.footprint.size(); ++i) {
    EXPECT_GT(r.footprint[i].uplink_bytes, r.footprint[i - 1].uplink_bytes);
    EXPECT_GT(r.footprint[i].iteration, r.footprint[i - 1].iteration);
  }
}

TEST(FlCluster, ConstructorValidation) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  EXPECT_THROW(FlCluster({}, std::make_unique<core::AcceptAllFilter>(),
                         w.evaluator, fast_options()),
               std::invalid_argument);
  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  EXPECT_THROW(
      FlCluster(std::move(w2.clients), nullptr, w2.evaluator, fast_options()),
      std::invalid_argument);
}

TEST(FlCluster, RecoveryOptionValidation) {
  auto make = [](const ClusterOptions& opt) {
    fl::ConvexTestbedSpec spec;
    spec.clients = 4;
    spec.dim = 4;
    fl::ConvexWorkload w = fl::make_convex_workload(spec);
    FlCluster cluster(std::move(w.clients),
                      std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                      opt);
  };
  // Fault injection without a deadline would hang forever on the first
  // dropped frame; the constructor must refuse it.
  {
    auto opt = fast_options();
    opt.fault.uplink.drop_prob = 0.1;
    EXPECT_THROW(make(opt), std::invalid_argument);
    opt.recovery.round_timeout_s = 0.2;
    EXPECT_NO_THROW(make(opt));
  }
  {
    auto opt = fast_options();
    opt.recovery.quorum = 0.0;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.recovery.quorum = 1.5;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.recovery.max_attempts = 0;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.recovery.backoff = 0.5;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.recovery.round_timeout_s = -1.0;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.fault.crash_at_iteration[9] = 1;  // worker id out of range
    opt.recovery.round_timeout_s = 0.2;
    EXPECT_THROW(make(opt), std::invalid_argument);
  }
}

ClusterOptions faulty_options() {
  auto opt = fast_options();
  opt.fl.max_iterations = 8;
  opt.fault.seed = 99;
  opt.fault.downlink = LinkFaults{.drop_prob = 0.15, .corrupt_prob = 0.05,
                                  .duplicate_prob = 0.05};
  opt.fault.uplink = LinkFaults{.drop_prob = 0.15, .corrupt_prob = 0.05,
                                .duplicate_prob = 0.05};
  opt.recovery.round_timeout_s = 0.15;
  opt.recovery.backoff = 1.5;
  opt.recovery.max_attempts = 10;
  opt.recovery.quorum = 1.0;
  return opt;
}

TEST(FlCluster, FaultyRunMatchesFaultFreeAtFullQuorum) {
  // The central invariant: with faults injected but recovery enabled and
  // quorum 1.0, every round still commits with every worker's (exactly
  // once trained) reply, so the learning trajectory is bit-identical to
  // the fault-free run.  Only the byte/retransmit accounting may differ.
  auto clean_opt = fast_options();
  clean_opt.fl.max_iterations = 8;
  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster clean_cluster(
      std::move(w1.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w1.evaluator, clean_opt);
  const ClusterResult clean = clean_cluster.run();

  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  FlCluster faulty_cluster(
      std::move(w2.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w2.evaluator, faulty_options());
  const ClusterResult faulty = faulty_cluster.run();

  // Identical learning trajectory...
  ASSERT_EQ(faulty.sim.history.size(), clean.sim.history.size());
  for (std::size_t i = 0; i < clean.sim.history.size(); ++i) {
    EXPECT_EQ(faulty.sim.history[i].uploads, clean.sim.history[i].uploads);
    EXPECT_EQ(faulty.sim.history[i].participants,
              clean.sim.history[i].participants);
    EXPECT_DOUBLE_EQ(faulty.sim.history[i].mean_score,
                     clean.sim.history[i].mean_score);
    if (clean.sim.history[i].evaluated()) {
      EXPECT_DOUBLE_EQ(faulty.sim.history[i].accuracy,
                       clean.sim.history[i].accuracy);
    }
  }
  EXPECT_EQ(faulty.sim.final_params, clean.sim.final_params);
  EXPECT_EQ(faulty.sim.eliminations_per_client,
            clean.sim.eliminations_per_client);
  EXPECT_EQ(faulty.upload_messages, clean.upload_messages);
  EXPECT_EQ(faulty.elimination_messages, clean.elimination_messages);
  EXPECT_TRUE(faulty.faults.crashed_workers.empty());

  // ...while the fault layer demonstrably did its worst.
  EXPECT_GT(faulty.faults.frames_dropped, 0u);
  EXPECT_GT(faulty.faults.frames_corrupted, 0u);
  EXPECT_GT(faulty.faults.frames_duplicated, 0u);
  EXPECT_GT(faulty.faults.corrupt_rejected, 0u);
  EXPECT_GT(faulty.faults.retransmits, 0u);
  EXPECT_GT(faulty.faults.timed_out_rounds, 0u);
  EXPECT_GT(faulty.downlink_retransmitted_bytes +
                faulty.uplink_retransmitted_bytes,
            0u);
  EXPECT_EQ(clean.faults.retransmits, 0u);
  EXPECT_EQ(clean.downlink_retransmitted_bytes, 0u);
  EXPECT_EQ(clean.uplink_retransmitted_bytes, 0u);
  // Retransmitted bytes flow through the same meters as originals.
  EXPECT_GT(faulty.downlink_bytes + faulty.uplink_bytes,
            clean.downlink_bytes + clean.uplink_bytes);
}

TEST(FlCluster, SeededFaultRunIsReproducible) {
  auto run_once = [] {
    fl::Workload w = fl::make_digits_mlp_workload(small_spec());
    FlCluster cluster(
        std::move(w.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w.evaluator, faulty_options());
    return cluster.run();
  };
  const ClusterResult a = run_once();
  const ClusterResult b = run_once();
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.sim.final_params, b.sim.final_params);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.uplink_retransmitted_bytes, b.uplink_retransmitted_bytes);
  EXPECT_EQ(a.downlink_retransmitted_bytes, b.downlink_retransmitted_bytes);
  EXPECT_EQ(a.upload_messages, b.upload_messages);
  EXPECT_EQ(a.elimination_messages, b.elimination_messages);
}

TEST(FlCluster, QuorumCommitsRoundsPastAPersistentStraggler) {
  fl::ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  spec.local_steps = 3;
  spec.gradient_noise = 0.02;
  fl::ConvexWorkload w = fl::make_convex_workload(spec);

  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 4;
  opt.fl.eval_every = 2;
  // Worker 3 always sleeps far past the deadline; quorum 0.5 lets the
  // other three commit each round without it.
  opt.fault.straggler_delay_s[3] = 0.3;
  opt.recovery.round_timeout_s = 0.1;
  opt.recovery.quorum = 0.5;
  opt.recovery.max_attempts = 30;  // never exhaust: stragglers are not dead
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    opt);
  const ClusterResult r = cluster.run();

  EXPECT_EQ(r.faults.quorum_rounds, 4u);
  EXPECT_EQ(r.faults.timed_out_rounds, 4u);
  EXPECT_TRUE(r.faults.crashed_workers.empty());
  // The straggler misses every round; the fast workers miss none.
  EXPECT_GE(r.faults.max_staleness_per_client[3], 1u);
  EXPECT_EQ(r.faults.max_staleness_per_client[0], 0u);
  EXPECT_EQ(r.faults.max_staleness_per_client[1], 0u);
  EXPECT_EQ(r.faults.max_staleness_per_client[2], 0u);
  for (const auto& rec : r.sim.history) {
    EXPECT_EQ(rec.participants, 3u);
  }
}

TEST(FlCluster, FirstKReportsCommitsWithoutWaitingForStragglers) {
  // Over-selection on the live cluster: with first_k_reports = 3 of 4
  // workers and one worker consistently slow, every round commits on the
  // three fast replies — no deadline expiry needed — and the slow worker's
  // late uploads never count.
  fl::ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  spec.local_steps = 3;
  spec.gradient_noise = 0.02;
  fl::ConvexWorkload w = fl::make_convex_workload(spec);

  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 4;
  opt.fl.eval_every = 2;
  opt.fault.straggler_delay_s[3] = 0.3;
  // Timeout generous enough that the straggler would make it: only the
  // first-K rule can be what commits the round early.
  opt.recovery.round_timeout_s = 2.0;
  opt.recovery.first_k_reports = 3;
  opt.recovery.max_attempts = 30;
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    opt);
  const ClusterResult r = cluster.run();

  EXPECT_EQ(r.faults.over_select_commits, 4u);
  EXPECT_EQ(r.faults.quorum_rounds, 0u);
  ASSERT_EQ(r.sim.history.size(), 4u);
  for (const auto& rec : r.sim.history) {
    EXPECT_EQ(rec.participants, 3u);
  }
  // Per-client upload counters ride in the result: the fast workers
  // answered every round, the straggler's replies all arrived post-commit.
  ASSERT_EQ(r.sim.uploads_per_client.size(), 4u);
  EXPECT_EQ(r.sim.uploads_per_client[0], 4u);
  EXPECT_EQ(r.sim.uploads_per_client[1], 4u);
  EXPECT_EQ(r.sim.uploads_per_client[2], 4u);
  EXPECT_EQ(r.sim.uploads_per_client[3], 0u);
  // Byte-valued Φ: the result carries what had crossed the uplink by the
  // last commit (straggler frames still in flight land in the meter only).
  EXPECT_GT(r.sim.uploaded_bytes, 0u);
  EXPECT_EQ(r.sim.uploaded_bytes, r.sim.history.back().cumulative_upload_bytes);
  EXPECT_LE(r.sim.uploaded_bytes, r.uplink_bytes);
  EXPECT_EQ(r.faults.timed_out_rounds, 0u);
}

TEST(FlCluster, CrashStopWorkersAreDetectedAndExcluded) {
  // Satellite: k of n workers die mid-run; with quorum 0.5 plus staleness
  // suspicion the cluster keeps training on the survivors and still ends
  // near the optimum of the convex testbed.
  fl::ConvexTestbedSpec spec;
  spec.clients = 12;
  spec.dim = 8;
  spec.center_spread = 0.5;
  spec.outlier_fraction = 0.0;
  spec.gradient_noise = 0.02;
  spec.local_steps = 3;

  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.2);
  opt.fl.max_iterations = 20;
  opt.fl.eval_every = 5;

  // Fault-free baseline for the accuracy target.
  fl::ConvexWorkload w_clean = fl::make_convex_workload(spec);
  FlCluster clean_cluster(
      std::move(w_clean.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.3)),
      w_clean.evaluator, opt);
  const ClusterResult clean = clean_cluster.run();

  const std::uint64_t crash_iter = 4;
  opt.fault.crash_at_iteration[2] = crash_iter;
  opt.fault.crash_at_iteration[5] = crash_iter;
  opt.fault.crash_at_iteration[9] = crash_iter;
  opt.recovery.round_timeout_s = 0.15;
  opt.recovery.quorum = 0.5;
  opt.recovery.max_attempts = 4;
  opt.recovery.suspect_after_stale_rounds = 2;

  fl::ConvexWorkload w = fl::make_convex_workload(spec);
  FlCluster cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.3)),
      w.evaluator, opt);
  const ClusterResult r = cluster.run();

  // All three crashed workers are declared dead, and nobody else is.
  std::vector<std::uint32_t> crashed = r.faults.crashed_workers;
  std::sort(crashed.begin(), crashed.end());
  EXPECT_EQ(crashed, (std::vector<std::uint32_t>{2, 5, 9}));

  // CMFL elimination accounting excludes dead clients: they can only have
  // been eliminated in the rounds they actually participated in.
  for (const std::uint32_t k : {2u, 5u, 9u}) {
    EXPECT_LE(r.sim.eliminations_per_client[k], crash_iter - 1);
  }
  EXPECT_GE(r.faults.max_staleness_per_client[2], 2u);

  // The survivors still drive the model to (near) the fault-free target.
  EXPECT_GT(r.sim.final_accuracy, 0.0);
  EXPECT_GE(r.sim.final_accuracy, clean.sim.final_accuracy - 0.15);
}

TEST(FlCluster, QuarantinesAGarbageWorker) {
  // Worker 0 uploads garbage (noise laced with NaN/inf).  The master's
  // validator must reject every such update, quarantine the worker after
  // the default three strikes, and stop broadcasting to it — while the
  // surviving workers keep the model finite.
  fl::ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  spec.outlier_fraction = 0.0;
  spec.gradient_noise = 0.02;
  spec.local_steps = 3;
  fl::ConvexWorkload w = fl::make_convex_workload(spec);

  fl::AdversarySpec adv;
  adv.attack = fl::Attack::kGarbage;
  adv.seed = 17;
  w.clients[0] = std::make_unique<fl::ByzantineClient>(
      std::move(w.clients[0]), adv, 0);

  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 8;
  opt.fl.eval_every = 4;
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    opt);
  const ClusterResult r = cluster.run();

  EXPECT_EQ(r.sim.validation.quarantined_count(), 1u);
  EXPECT_EQ(r.sim.validation.quarantined[0], 1u);
  EXPECT_GT(r.sim.validation.rejected_nonfinite, 0u);
  for (float p : r.sim.final_params) ASSERT_TRUE(std::isfinite(p));
  EXPECT_GT(r.sim.final_accuracy, 0.0);

  std::size_t rejected = 0;
  for (const auto& rec : r.sim.history) {
    rejected += rec.rejected;
    // Once quarantined, worker 0 is no longer broadcast to: late rounds run
    // with three participants.
    if (rec.iteration > 4) EXPECT_EQ(rec.participants, 3u);
  }
  EXPECT_EQ(rejected, r.sim.validation.total_rejected());
  EXPECT_GT(rejected, 0u);
}

TEST(FlCluster, CheckpointResumeIsBitIdentical) {
  // Kill the cluster after iteration 4, rebuild workload + cluster from
  // scratch, resume from the checkpoint file: trajectory, byte accounting,
  // and footprint curve all match the uninterrupted run exactly.
  const std::string ref_path = ::testing::TempDir() + "cluster_ck_ref.bin";
  const std::string path = ::testing::TempDir() + "cluster_ck.bin";
  std::remove(ref_path.c_str());
  std::remove(path.c_str());

  auto opt = fast_options();  // 12 iterations, eval_every 4
  opt.fl.checkpoint_every = 4;
  opt.fl.checkpoint_path = ref_path;

  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster ref_cluster(
      std::move(w1.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w1.evaluator, opt);
  const ClusterResult uninterrupted = ref_cluster.run();

  {
    auto first_half = opt;
    first_half.fl.max_iterations = 4;
    first_half.fl.checkpoint_path = path;
    fl::Workload w = fl::make_digits_mlp_workload(small_spec());
    FlCluster cluster(
        std::move(w.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w.evaluator, first_half);
    cluster.run();
  }  // master and workers torn down here

  const fl::TrainerCheckpoint ck = fl::load_checkpoint_file(path);
  EXPECT_EQ(ck.iteration, 4u);
  auto resume_opt = opt;
  resume_opt.fl.checkpoint_path = path;
  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  FlCluster resumed_cluster(
      std::move(w2.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w2.evaluator, resume_opt);
  const ClusterResult resumed = resumed_cluster.resume(ck);

  EXPECT_EQ(resumed.sim.final_params, uninterrupted.sim.final_params);
  ASSERT_EQ(resumed.sim.history.size(), uninterrupted.sim.history.size());
  for (std::size_t i = 0; i < uninterrupted.sim.history.size(); ++i) {
    EXPECT_TRUE(fl::bitwise_equal(resumed.sim.history[i],
                                  uninterrupted.sim.history[i]))
        << "iteration record " << i;
  }
  EXPECT_EQ(resumed.sim.eliminations_per_client,
            uninterrupted.sim.eliminations_per_client);
  EXPECT_EQ(resumed.sim.total_rounds, uninterrupted.sim.total_rounds);
  EXPECT_EQ(resumed.sim.uploaded_bytes, uninterrupted.sim.uploaded_bytes);
  EXPECT_EQ(resumed.uplink_bytes, uninterrupted.uplink_bytes);
  EXPECT_EQ(resumed.downlink_bytes, uninterrupted.downlink_bytes);
  EXPECT_EQ(resumed.upload_messages, uninterrupted.upload_messages);
  EXPECT_EQ(resumed.elimination_messages,
            uninterrupted.elimination_messages);
  EXPECT_EQ(resumed.simulated_transfer_seconds,
            uninterrupted.simulated_transfer_seconds);
  ASSERT_EQ(resumed.footprint.size(), uninterrupted.footprint.size());
  for (std::size_t i = 0; i < uninterrupted.footprint.size(); ++i) {
    EXPECT_EQ(resumed.footprint[i].iteration,
              uninterrupted.footprint[i].iteration);
    EXPECT_EQ(resumed.footprint[i].accuracy,
              uninterrupted.footprint[i].accuracy);
    EXPECT_EQ(resumed.footprint[i].uplink_bytes,
              uninterrupted.footprint[i].uplink_bytes);
  }
  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

TEST(FlCluster, SignCodecUplinkIsOneBitPerCoordinatePlusHeader) {
  // The headline acceptance shape: with the sign codec negotiated, every
  // upload frame carries ~dim/8 payload bytes instead of 4*dim, and the
  // ByteMeter records exactly those encoded frames.
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  const std::size_t dim = w.param_count;
  auto opt = fast_options();
  opt.fl.codec.spec = "sign";
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    opt);
  const ClusterResult r = cluster.run();

  // CodecUpload frame = 1 type + 4 seq + 8 iter + 4 client + 8 score +
  // 1 codec_id + 1 codec_version + 8 len + payload, sealed with 4 CRC.
  const std::size_t payload = 8 + 4 + 4 * ((dim + 255) / 256) +
                              8 * ((dim + 63) / 64);
  const std::size_t frame = 35 + payload + 4;
  EXPECT_EQ(r.upload_messages, 8u * 12u);
  EXPECT_EQ(r.uplink_bytes, r.upload_messages * frame);
  // ~32x smaller than the dense frame the vanilla path would have sent.
  const std::size_t dense_frame = 1 + 4 + 8 + 4 + 8 + 8 + 4 * dim + 4;
  EXPECT_LT(frame, dense_frame / 8);
}

TEST(FlCluster, EveryCodecMatchesTheInMemorySimulation) {
  // Same workload, same filter, same codec: the socket run and the
  // in-memory simulation must agree exactly — encode on the worker, a real
  // CRC-sealed frame across the channel, decode on the master, and still
  // the identical learning trace.  Covers all four production codecs,
  // including the stateful-decode codebook (legal on a single master).
  for (const char* spec :
       {"sign", "quant:8", "topk:0.05", "codebook:8,4"}) {
    SCOPED_TRACE(spec);
    auto opt = fast_options();
    opt.fl.codec.spec = spec;

    fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
    FlCluster cluster(
        std::move(w1.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w1.evaluator, opt);
    const ClusterResult wire = cluster.run();

    fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
    fl::FederatedSimulation sim(
        std::move(w2.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w2.evaluator, opt.fl);
    const fl::SimulationResult mem = sim.run();

    ASSERT_EQ(wire.sim.history.size(), mem.history.size());
    for (std::size_t i = 0; i < mem.history.size(); ++i) {
      EXPECT_EQ(wire.sim.history[i].uploads, mem.history[i].uploads);
    }
    EXPECT_EQ(wire.sim.final_params, mem.final_params);
  }
}

TEST(FlCluster, CodecRunSurvivesFaultInjectionUnchanged) {
  // The encode-once discipline under fire: the quant codec's rounding RNG
  // advances exactly once per trained round, so dropped/corrupted/duplicated
  // frames and retransmissions (which resend the cached encoded reply) must
  // leave the trajectory bit-identical to the fault-free codec run.
  auto clean_opt = fast_options();
  clean_opt.fl.max_iterations = 8;
  clean_opt.fl.codec.spec = "quant:8";
  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster clean_cluster(
      std::move(w1.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w1.evaluator, clean_opt);
  const ClusterResult clean = clean_cluster.run();

  auto opt = faulty_options();
  opt.fl.codec.spec = "quant:8";
  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  FlCluster faulty_cluster(
      std::move(w2.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w2.evaluator, opt);
  const ClusterResult faulty = faulty_cluster.run();

  EXPECT_EQ(faulty.sim.final_params, clean.sim.final_params);
  EXPECT_EQ(faulty.upload_messages, clean.upload_messages);
  EXPECT_GT(faulty.faults.frames_dropped, 0u);
  EXPECT_GT(faulty.faults.retransmits, 0u);
}

TEST(FlCluster, CodecCheckpointResumeIsBitIdentical) {
  // Kill-and-resume with stateful codecs: the top-k error-feedback residual
  // and the quant RNG stream ride in the checkpoint, so the resumed run
  // reproduces the uninterrupted one bit for bit — trajectory and encoded
  // byte accounting alike.
  for (const char* spec : {"topk:0.05", "quant:4"}) {
    SCOPED_TRACE(spec);
    const std::string ref_path = ::testing::TempDir() + "codec_ck_ref.bin";
    const std::string path = ::testing::TempDir() + "codec_ck.bin";
    std::remove(ref_path.c_str());
    std::remove(path.c_str());

    auto opt = fast_options();  // 12 iterations, eval_every 4
    opt.fl.codec.spec = spec;
    opt.fl.checkpoint_every = 4;
    opt.fl.checkpoint_path = ref_path;

    fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
    FlCluster ref_cluster(
        std::move(w1.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w1.evaluator, opt);
    const ClusterResult uninterrupted = ref_cluster.run();

    {
      auto first_half = opt;
      first_half.fl.max_iterations = 4;
      first_half.fl.checkpoint_path = path;
      fl::Workload w = fl::make_digits_mlp_workload(small_spec());
      FlCluster cluster(
          std::move(w.clients),
          std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
          w.evaluator, first_half);
      cluster.run();
    }

    const fl::TrainerCheckpoint ck = fl::load_checkpoint_file(path);
    EXPECT_EQ(ck.iteration, 4u);
    // The codec streams were captured: one state blob per worker.
    ASSERT_EQ(ck.compressor_state.size(), 8u);
    auto resume_opt = opt;
    resume_opt.fl.checkpoint_path = path;
    fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
    FlCluster resumed_cluster(
        std::move(w2.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w2.evaluator, resume_opt);
    const ClusterResult resumed = resumed_cluster.resume(ck);

    EXPECT_EQ(resumed.sim.final_params, uninterrupted.sim.final_params);
    EXPECT_EQ(resumed.uplink_bytes, uninterrupted.uplink_bytes);
    EXPECT_EQ(resumed.upload_messages, uninterrupted.upload_messages);
    EXPECT_EQ(resumed.elimination_messages,
              uninterrupted.elimination_messages);
    std::remove(ref_path.c_str());
    std::remove(path.c_str());
  }
}

TEST(FlCluster, RejectsUnknownCodecSpec) {
  fl::Workload w = fl::make_digits_mlp_workload(small_spec());
  auto opt = fast_options();
  opt.fl.codec.spec = "zstd";
  EXPECT_THROW(FlCluster(std::move(w.clients),
                         std::make_unique<core::AcceptAllFilter>(),
                         w.evaluator, opt),
               std::invalid_argument);
}

TEST(FlCluster, BackoffJitterIsValidatedAndOffByDefault) {
  // Negative jitter is nonsense; zero (the default) must leave the
  // retransmit schedule — and therefore every byte counter — exactly
  // deterministic, which SeededFaultRunIsReproducible relies on.
  {
    fl::ConvexTestbedSpec spec;
    spec.clients = 4;
    spec.dim = 4;
    fl::ConvexWorkload w = fl::make_convex_workload(spec);
    auto opt = fast_options();
    opt.recovery.backoff_jitter = -0.1;
    EXPECT_THROW(FlCluster(std::move(w.clients),
                           std::make_unique<core::AcceptAllFilter>(),
                           w.evaluator, opt),
                 std::invalid_argument);
  }
  // Regression: at jitter = 0 two identically-seeded faulty runs agree on
  // every byte counter, not just the trajectory.
  auto opt = faulty_options();
  ASSERT_EQ(opt.recovery.backoff_jitter, 0.0);
  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster c1(std::move(w1.clients),
               std::make_unique<core::AcceptAllFilter>(), w1.evaluator, opt);
  const ClusterResult a = c1.run();
  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  FlCluster c2(std::move(w2.clients),
               std::make_unique<core::AcceptAllFilter>(), w2.evaluator, opt);
  const ClusterResult b = c2.run();
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.uplink_retransmitted_bytes, b.uplink_retransmitted_bytes);
  EXPECT_EQ(a.downlink_retransmitted_bytes, b.downlink_retransmitted_bytes);
}

TEST(FlCluster, BackoffJitterChangesTimingButNotTheTrajectory) {
  // Jitter desynchronizes retransmit deadlines (the thundering-herd fix);
  // at quorum 1.0 it must not change what the master learns.
  auto opt = faulty_options();
  fl::Workload w1 = fl::make_digits_mlp_workload(small_spec());
  FlCluster c1(std::move(w1.clients),
               std::make_unique<core::AcceptAllFilter>(), w1.evaluator, opt);
  const ClusterResult plain = c1.run();

  opt.recovery.backoff_jitter = 0.5;
  fl::Workload w2 = fl::make_digits_mlp_workload(small_spec());
  FlCluster c2(std::move(w2.clients),
               std::make_unique<core::AcceptAllFilter>(), w2.evaluator, opt);
  const ClusterResult jittered = c2.run();

  // Same learning trajectory (byte meters may differ: retransmit timing
  // is exactly what jitter perturbs).
  ASSERT_EQ(jittered.sim.history.size(), plain.sim.history.size());
  for (std::size_t i = 0; i < plain.sim.history.size(); ++i) {
    EXPECT_EQ(jittered.sim.history[i].uploads, plain.sim.history[i].uploads);
    EXPECT_EQ(jittered.sim.history[i].participants,
              plain.sim.history[i].participants);
    EXPECT_DOUBLE_EQ(jittered.sim.history[i].mean_score,
                     plain.sim.history[i].mean_score);
  }
  EXPECT_EQ(jittered.sim.final_params, plain.sim.final_params);
  EXPECT_EQ(jittered.sim.eliminations_per_client,
            plain.sim.eliminations_per_client);
  EXPECT_EQ(jittered.upload_messages, plain.upload_messages);
  EXPECT_EQ(jittered.elimination_messages, plain.elimination_messages);
}

TEST(FlCluster, LostOverSelectRacesAreNotCrashEvidence) {
  // Footgun regression: combining first_k_reports with staleness suspicion
  // used to declare a merely-slow worker dead — losing the over-selection
  // race every round looked identical to blowing every deadline.  Only
  // rounds that time out (not rounds the fast K committed early) may feed
  // the suspicion counter.
  fl::ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  spec.local_steps = 3;
  spec.gradient_noise = 0.02;
  fl::ConvexWorkload w = fl::make_convex_workload(spec);

  ClusterOptions opt;
  opt.fl.local_epochs = 1;
  opt.fl.batch_size = 1;
  opt.fl.learning_rate = core::Schedule::constant(0.1);
  opt.fl.max_iterations = 4;
  opt.fl.eval_every = 2;
  opt.fault.straggler_delay_s[3] = 0.3;
  // Generous deadline: the straggler never actually times out, it only
  // keeps losing first-K races.
  opt.recovery.round_timeout_s = 2.0;
  opt.recovery.first_k_reports = 3;
  opt.recovery.suspect_after_stale_rounds = 1;  // hair trigger
  opt.recovery.max_attempts = 30;
  FlCluster cluster(std::move(w.clients),
                    std::make_unique<core::AcceptAllFilter>(), w.evaluator,
                    opt);
  const ClusterResult r = cluster.run();

  EXPECT_TRUE(r.faults.crashed_workers.empty());
  EXPECT_EQ(r.faults.over_select_commits, 4u);
  EXPECT_EQ(r.faults.timed_out_rounds, 0u);
  // The slow worker stays invited (alive) through the whole run.
  for (const auto& rec : r.sim.history) {
    EXPECT_EQ(rec.participants, 3u);
  }
  EXPECT_GE(r.faults.max_staleness_per_client[3], 1u);
}


TEST(Broadcast, SealsTheCommittedRoundStateWithSeqEqualToRound) {
  // Both masters build a round's broadcast through make_broadcast: the
  // committer's x and ū, η_t, the negotiated codec, and seq == round.
  fl::SimulationOptions fl_options;
  fl_options.learning_rate = core::Schedule::inv_sqrt(0.2);
  fl_options.max_iterations = 10;
  fl_options.eval_every = 100;
  fl::RoundCommitter committer(fl_options, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  const std::vector<float> update = {0.5f, -0.25f, 0.0f, 1.0f};
  fl::RoundUploads uploads;
  uploads.add(0, update, 10, 0);
  committer.record_upload(0, 0);
  fl::IterationRecord rec;
  rec.iteration = 1;
  rec.uploads = 1;
  rec.participants = 1;
  committer.commit(rec, uploads,
                   [](std::span<const float>) { return nn::EvalResult{}; });
  ASSERT_NE(committer.estimate()[0], 0.0f);
  codec::CodecOptions sign;
  sign.spec = "sign";
  const CodecPlane codecs(sign, 2);

  const std::vector<std::byte> frame =
      make_broadcast(2, /*leader_id=*/1, committer, fl_options, codecs);
  const auto bc = std::get<BroadcastMsg>(decode(open_frame(frame)));
  EXPECT_EQ(bc.seq, 2u);
  EXPECT_EQ(bc.iteration, 2u);
  EXPECT_EQ(bc.leader_id, 1u);
  EXPECT_EQ(bc.learning_rate,
            static_cast<float>(fl_options.learning_rate.at(2)));
  EXPECT_EQ(bc.codec_id, codecs.id());
  EXPECT_EQ(bc.codec_version, codecs.version());
  EXPECT_TRUE(std::ranges::equal(bc.global_params, committer.global()));
  EXPECT_TRUE(std::ranges::equal(bc.global_update, committer.estimate()));
  // The frame is the sealed encoding of that message, byte for byte.
  auto expected = encode(Message(bc));
  seal_frame(expected);
  EXPECT_TRUE(frame == expected);
}

TEST(Worker, AnswersEachRoundOnceAndResendsItsCachedReply) {
  // One worker driven through its inbox with hand-built frames, served on
  // this thread: each call queues frames plus a Shutdown and returns once
  // the worker has handled them all.  Three plain uplinks stand in for
  // three master replicas.
  std::vector<std::unique_ptr<fl::FlClient>> clients;
  clients.push_back(std::make_unique<fl::ConvexClient>(
      std::vector<float>(8, 1.0f), /*local_steps=*/3,
      /*gradient_noise=*/0.01, util::Rng(3)));
  const fl::FlClient& client = *clients.front();
  const core::AcceptAllFilter filter;
  ClusterOptions options;
  options.fl.local_epochs = 1;
  FaultStats fault_stats;
  std::array<Channel, 3> replicas;
  WorkerGroup group(clients, filter, options);  // never started
  const WorkerStats& stats = group.stats();
  std::vector<FaultyChannel> uplinks;
  for (Channel& r : replicas) {
    uplinks.emplace_back(r, LinkFaults{}, util::Rng(0), &fault_stats);
  }
  Worker worker(group, 0, std::move(uplinks));
  Channel& inbox = group.inbox(0);

  const auto sealed = [](const Message& m) {
    auto frame = encode(m);
    seal_frame(frame);
    return frame;
  };
  const auto serve = [&](std::vector<std::vector<std::byte>> frames) {
    for (auto& f : frames) inbox.send(std::move(f));
    inbox.send(sealed(ShutdownMsg{}));
    worker.serve();
  };
  const auto take = [](Channel& c) {
    return c.recv_for(Clock::duration::zero());
  };

  BroadcastMsg bc;
  bc.seq = 1;
  bc.iteration = 1;
  bc.global_params.assign(8, 0.0f);
  bc.global_update.assign(8, 0.0f);
  bc.learning_rate = 0.1f;

  // 1. A new round: the client trains once and one reply goes to the
  // replica that sent the broadcast.
  serve({sealed(bc)});
  const std::uint64_t steps = client.lifetime_steps();
  EXPECT_GT(steps, 0u);
  const auto reply = take(replicas[0]);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(take(replicas[0]).has_value());
  const Message answered = decode(open_frame(*reply));
  ASSERT_TRUE(std::holds_alternative<UpdateUploadMsg>(answered));
  EXPECT_EQ(std::get<UpdateUploadMsg>(answered).seq, 1u);
  EXPECT_EQ(stats.upload_frames.load(), 1u);
  EXPECT_EQ(stats.uplink.total_bytes(), reply->size());

  // 2. The same broadcast again: the cached bytes, without training.
  serve({sealed(bc)});
  EXPECT_EQ(client.lifetime_steps(), steps);
  const auto resent = take(replicas[0]);
  ASSERT_TRUE(resent.has_value());
  EXPECT_TRUE(*resent == *reply);
  EXPECT_EQ(stats.redundant_frames.load(), 1u);
  EXPECT_EQ(stats.retransmits.load(), 1u);
  EXPECT_EQ(stats.uplink.retransmitted_bytes(), reply->size());

  // 3. A broadcast with a lower seq is dropped.
  BroadcastMsg stale = bc;
  stale.seq = 0;
  serve({sealed(stale)});
  EXPECT_EQ(stats.redundant_frames.load(), 2u);

  // 4. A frame with a flipped bit is counted as corrupt.
  auto flipped = sealed(bc);
  flipped[flipped.size() / 2] ^= std::byte{0x10};
  serve({std::move(flipped)});
  EXPECT_EQ(stats.corrupt_rejected.load(), 1u);
  for (Channel& r : replicas) EXPECT_FALSE(take(r).has_value());

  // 5. A redirect for the current round re-sends the cached reply on the
  // hinted replica's uplink.
  RedirectMsg rd;
  rd.iteration = 1;
  rd.leader_id = 2;
  serve({sealed(rd)});
  const auto redirected = take(replicas[2]);
  ASSERT_TRUE(redirected.has_value());
  EXPECT_TRUE(*redirected == *reply);
  EXPECT_FALSE(take(replicas[0]).has_value());
  EXPECT_FALSE(take(replicas[1]).has_value());
  EXPECT_EQ(stats.retransmits.load(), 2u);
  EXPECT_EQ(stats.uplink.retransmitted_bytes(), 2 * reply->size());

  // 6. A broadcast of the wrong dimension or codec is a protocol error.
  BroadcastMsg next = bc;
  next.seq = 2;
  next.iteration = 2;
  BroadcastMsg wrong_dim = next;
  wrong_dim.global_params.resize(7);
  inbox.send(sealed(wrong_dim));
  EXPECT_THROW(worker.serve(), std::runtime_error);
  BroadcastMsg wrong_codec = next;
  wrong_codec.codec_id = 1;
  inbox.send(sealed(wrong_codec));
  EXPECT_THROW(worker.serve(), std::runtime_error);
  EXPECT_EQ(client.lifetime_steps(), steps);

  // 7. Shutdown returns.
  inbox.send(sealed(ShutdownMsg{}));
  worker.serve();
  EXPECT_FALSE(inbox.recv_for(Clock::duration::zero()).has_value());
  EXPECT_EQ(stats.upload_frames.load(), 1u);
}

TEST(WorkerGroup, MalformedBroadcastErrorReachesTheWaitingMaster) {
  // A CRC-valid broadcast of the wrong dimension is a protocol error.  It
  // ends the worker's thread, not the process: the group keeps the error
  // and wakes the master, here this thread blocked on its inbox the way
  // the single master waits for replies.
  std::vector<std::unique_ptr<fl::FlClient>> clients;
  for (std::uint64_t k = 0; k < 2; ++k) {
    clients.push_back(std::make_unique<fl::ConvexClient>(
        std::vector<float>(8, 1.0f), /*local_steps=*/3,
        /*gradient_noise=*/0.01, util::Rng(k)));
  }
  const core::AcceptAllFilter filter;
  const ClusterOptions options;
  FaultStats fault_stats;
  Channel master_inbox;
  WorkerGroup group(clients, filter, options);
  group.start(
      1,
      [&](std::size_t k, std::uint32_t) {
        return FaultyChannel(master_inbox, LinkFaults{}, util::Rng(k),
                             &fault_stats);
      },
      [&] { master_inbox.close(); });

  BroadcastMsg bc;
  bc.seq = 1;
  bc.iteration = 1;
  bc.global_params.assign(9, 0.0f);  // the clients hold 8 parameters
  bc.global_update.assign(9, 0.0f);
  bc.learning_rate = 0.1f;
  auto frame = encode(Message(bc));
  seal_frame(frame);
  group.inbox(0).send(std::move(frame));

  EXPECT_FALSE(master_inbox.recv().has_value());  // woken without a reply
  EXPECT_THROW(group.rethrow_error(), std::runtime_error);
  group.stop();  // the healthy worker still shuts down; stop() never throws
  EXPECT_THROW(group.rethrow_error(), std::runtime_error);
}

}  // namespace
}  // namespace cmfl::net
