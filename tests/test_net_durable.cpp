// Durable Raft persistence end-to-end (DESIGN.md §15).
//
// Three layers of guarantees, each tested here:
//   * RaftStorage: persist-before-ack state (term, vote, log, snapshot)
//     survives reopen; snapshot installation rotates the WAL; recovering
//     from snapshot + WAL tail equals recovering from the full log.
//   * Corruption matrix: every single-bit flip and truncation of the WAL
//     either recovers a clean prefix or fails loudly; sealed snapshot and
//     checkpoint files reject *every* flip — silence is never an option.
//   * The replicated cluster: a leader killed and *restarted* mid-round
//     (including with its WAL deliberately damaged while down) finishes the
//     run bit-identically to the fault-free trajectory.
//
// These tests run under the `durability` ctest label; bench/run_failover.sh
// runs them under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "net/cluster.h"
#include "net/raft.h"
#include "net/worker.h"

namespace cmfl::net {
namespace {

std::vector<std::byte> cmd(const std::string& s) {
  std::vector<std::byte> out;
  out.reserve(s.size());
  for (const char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

struct TempDir {
  TempDir() {
    dir = (std::filesystem::temp_directory_path() /
           ("cmfl_net_durable_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name())))
              .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& name) const { return dir + "/" + name; }
  std::string dir;
};

std::vector<std::uint8_t> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path,
               const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// ----------------------------------------------------------- RaftStorage

TEST(RaftStorage, PersistsAndRecoversHardStateAndLog) {
  TempDir tmp;
  {
    RaftStorage s(tmp.path("r0"));
    EXPECT_FALSE(s.recovered().any);
    s.persist_hard_state(3, std::nullopt);
    s.persist_hard_state(3, 1);  // vote within the same term
    s.append_entry(1, RaftEntry{3, cmd("a")});
    s.append_entry(2, RaftEntry{3, cmd("b")}, /*sync_now=*/false);
    s.append_entry(3, RaftEntry{3, cmd("c")}, /*sync_now=*/false);
    s.sync();
    EXPECT_GT(s.counters().wal_bytes_fsynced, 0u);
    EXPECT_GE(s.counters().wal_records, 5u);  // 2 hard-state + 3 entries
  }
  RaftStorage s(tmp.path("r0"));
  const RaftPersistentState& rec = s.recovered();
  EXPECT_TRUE(rec.any);
  EXPECT_EQ(rec.term, 3u);
  ASSERT_TRUE(rec.voted_for.has_value());
  EXPECT_EQ(*rec.voted_for, 1u);
  EXPECT_EQ(rec.snapshot_index, 0u);
  ASSERT_EQ(rec.log.size(), 3u);
  EXPECT_EQ(rec.log[1].command, cmd("b"));
  EXPECT_EQ(s.counters().replay_entries, 3u);
  EXPECT_FALSE(rec.wal_tail_truncated);
}

TEST(RaftStorage, TruncateSuffixDropsConflictingEntriesOnRecovery) {
  TempDir tmp;
  {
    RaftStorage s(tmp.path("r0"));
    s.persist_hard_state(2, std::nullopt);
    s.append_entry(1, RaftEntry{1, cmd("keep")});
    s.append_entry(2, RaftEntry{1, cmd("conflict-a")});
    s.append_entry(3, RaftEntry{1, cmd("conflict-b")});
    s.truncate_suffix(1);  // the leader overwrote 2.. with its own entries
    s.append_entry(2, RaftEntry{2, cmd("replacement")});
  }
  RaftStorage s(tmp.path("r0"));
  ASSERT_EQ(s.recovered().log.size(), 2u);
  EXPECT_EQ(s.recovered().log[0].command, cmd("keep"));
  EXPECT_EQ(s.recovered().log[1].command, cmd("replacement"));
  EXPECT_EQ(s.recovered().log[1].term, 2u);
}

TEST(RaftStorage, SnapshotRotatesWalAndRecoversTail) {
  TempDir tmp;
  std::uint64_t wal_before = 0;
  {
    RaftStorage s(tmp.path("r0"));
    s.persist_hard_state(4, 2);
    for (std::uint64_t i = 1; i <= 8; ++i) {
      s.append_entry(i, RaftEntry{4, cmd("e" + std::to_string(i))});
    }
    wal_before = std::filesystem::file_size(s.wal_path());
    const std::vector<RaftEntry> tail = {RaftEntry{4, cmd("e6")},
                                         RaftEntry{4, cmd("e7")},
                                         RaftEntry{4, cmd("e8")}};
    const auto snap = cmd("application-state-through-5");
    s.install_snapshot(5, 4, snap, tail);
    EXPECT_EQ(s.counters().snapshots_written, 1u);
    // Rotation shrank the WAL down to hard state + the live tail.
    EXPECT_LT(std::filesystem::file_size(s.wal_path()), wal_before);
  }
  RaftStorage s(tmp.path("r0"));
  const RaftPersistentState& rec = s.recovered();
  EXPECT_EQ(rec.snapshot_index, 5u);
  EXPECT_EQ(rec.snapshot_term, 4u);
  EXPECT_EQ(rec.snapshot, cmd("application-state-through-5"));
  ASSERT_EQ(rec.log.size(), 3u);
  EXPECT_EQ(rec.log[0].command, cmd("e6"));
  EXPECT_EQ(rec.log[2].command, cmd("e8"));
  EXPECT_EQ(rec.term, 4u);
}

TEST(RaftStorage, RestartFromSnapshotPlusWalEqualsRestartFromFullLog) {
  // Two storages that witnessed the same history, one of which compacted at
  // index 5: recovery must land both in logically identical states.
  TempDir tmp;
  const auto snap = cmd("state-through-5");
  {
    RaftStorage full(tmp.path("full"));
    RaftStorage compacted(tmp.path("compacted"));
    for (RaftStorage* s : {&full, &compacted}) {
      s->persist_hard_state(7, 0);
      for (std::uint64_t i = 1; i <= 9; ++i) {
        s->append_entry(i, RaftEntry{7, cmd("e" + std::to_string(i))});
      }
    }
    const std::vector<RaftEntry> tail = {
        RaftEntry{7, cmd("e6")}, RaftEntry{7, cmd("e7")},
        RaftEntry{7, cmd("e8")}, RaftEntry{7, cmd("e9")}};
    compacted.install_snapshot(5, 7, snap, tail);
  }
  RaftStorage full(tmp.path("full"));
  RaftStorage compacted(tmp.path("compacted"));
  const RaftPersistentState& a = full.recovered();
  const RaftPersistentState& b = compacted.recovered();
  EXPECT_EQ(a.term, b.term);
  EXPECT_EQ(a.voted_for, b.voted_for);
  // Same last index, and entry-for-entry agreement above the snapshot.
  ASSERT_EQ(a.log.size(), 9u);
  ASSERT_EQ(b.snapshot_index + b.log.size(), 9u);
  for (std::size_t i = 0; i < b.log.size(); ++i) {
    EXPECT_EQ(b.log[i], a.log[b.snapshot_index + i]) << "index offset " << i;
  }
  EXPECT_EQ(b.snapshot, snap);

  // Nodes built on top agree on the log surface they expose.
  RaftConfig c;
  c.cluster_size = 3;
  RaftNode na(c, &full);
  RaftNode nb(c, &compacted);
  EXPECT_EQ(na.last_log_index(), nb.last_log_index());
  EXPECT_EQ(na.term(), nb.term());
  EXPECT_EQ(na.role(), RaftNode::Role::kFollower);
  EXPECT_EQ(nb.role(), RaftNode::Role::kFollower);
}

TEST(RaftStorage, WalBitFlipMatrixRecoversPrefixOrThrows) {
  // Exhaustive single-bit corruption of a real RaftStorage WAL: every flip
  // must yield either a state that is a prefix of the original history or a
  // loud std::runtime_error — never a divergent log.
  TempDir tmp;
  {
    RaftStorage s(tmp.path("r0"), /*sync=*/false);
    s.persist_hard_state(3, 1);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      s.append_entry(i, RaftEntry{3, cmd("entry-" + std::to_string(i))});
    }
  }
  const std::string wal = tmp.path("r0") + "/wal";
  ASSERT_TRUE(std::filesystem::exists(wal));
  const auto pristine = read_raw(wal);
  std::size_t recovered_runs = 0;
  std::size_t loud_failures = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto corrupt = pristine;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      write_raw(wal, corrupt);
      try {
        RaftStorage s(tmp.path("r0"), /*sync=*/false);
        const RaftPersistentState& rec = s.recovered();
        // A successful recovery must be a prefix: the hard state intact
        // (its record precedes every entry), entries matching the original.
        ASSERT_EQ(rec.term, 3u) << "byte " << i << " bit " << bit;
        ASSERT_LE(rec.log.size(), 4u);
        for (std::size_t k = 0; k < rec.log.size(); ++k) {
          ASSERT_EQ(rec.log[k].command, cmd("entry-" + std::to_string(k + 1)))
              << "byte " << i << " bit " << bit << " diverged at entry " << k;
        }
        ++recovered_runs;
      } catch (const std::runtime_error&) {
        ++loud_failures;
      }
    }
  }
  EXPECT_GT(recovered_runs, 0u);
  EXPECT_GT(loud_failures, 0u);
}

TEST(RaftStorage, SnapshotBitFlipMatrixAlwaysFailsLoudly) {
  // The snapshot is a sealed file: unlike the WAL there is no valid-prefix
  // fallback, so every single-bit flip must be a loud failure.
  TempDir tmp;
  {
    RaftStorage s(tmp.path("r0"), /*sync=*/false);
    s.persist_hard_state(2, std::nullopt);
    s.append_entry(1, RaftEntry{2, cmd("e1")});
    s.append_entry(2, RaftEntry{2, cmd("e2")});
    s.install_snapshot(2, 2, cmd("snapshot-state"), {});
  }
  const std::string snap = tmp.path("r0") + "/snapshot";
  ASSERT_TRUE(std::filesystem::exists(snap));
  const auto pristine = read_raw(snap);
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto corrupt = pristine;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      write_raw(snap, corrupt);
      EXPECT_THROW(RaftStorage(tmp.path("r0"), /*sync=*/false),
                   std::runtime_error)
          << "snapshot byte " << i << " bit " << bit << " slipped through";
    }
  }
}

TEST(Checkpoint, FileBitFlipMatrixAlwaysFailsLoudly) {
  // fl::load_checkpoint_file rides the same sealed-file path; a flipped
  // training checkpoint must never load.
  TempDir tmp;
  const std::string path = tmp.path("ck.bin");
  fl::TrainerCheckpoint ck;
  ck.iteration = 12;
  ck.global_params = {1.0f, -2.5f, 0.125f};
  ck.estimator_estimate = {0.5f, 0.5f, 0.5f};
  ck.cumulative_rounds = 24;
  ck.uploaded_bytes = 4096;
  ck.eliminations_per_client = {1, 2};
  ck.uploads_per_client = {3, 4};
  ck.client_state = {{0, {7, 8}}, {1, {9}}};
  fl::save_checkpoint_file(path, ck);
  ASSERT_EQ(fl::load_checkpoint_file(path).iteration, 12u);  // sanity
  const auto pristine = read_raw(path);
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto corrupt = pristine;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      write_raw(path, corrupt);
      EXPECT_THROW(fl::load_checkpoint_file(path), std::runtime_error)
          << "checkpoint byte " << i << " bit " << bit << " slipped through";
    }
  }
}

// --------------------------------------------------- storage fault injector

TEST(StorageFaultInjector, IsSeededAndDeterministic) {
  TempDir tmp;
  const auto build = [&](const std::string& name) {
    RaftStorage s(tmp.path(name), /*sync=*/false);
    s.persist_hard_state(1, std::nullopt);
    for (std::uint64_t i = 1; i <= 5; ++i) {
      s.append_entry(i, RaftEntry{1, cmd("entry-" + std::to_string(i))});
    }
    return tmp.path(name) + "/wal";
  };
  const std::string a = build("a");
  const std::string b = build("b");
  StorageFaultInjector ia(42), ib(42);
  const auto act_a = ia.apply(StorageFault::kBitFlip, a);
  const auto act_b = ib.apply(StorageFault::kBitFlip, b);
  ASSERT_TRUE(act_a.has_value());
  ASSERT_TRUE(act_b.has_value());
  EXPECT_EQ(act_a->offset, act_b->offset);
  EXPECT_EQ(act_a->bit, act_b->bit);
  EXPECT_EQ(read_raw(a), read_raw(b));
  EXPECT_EQ(StorageFaultInjector(1).apply(StorageFault::kNone, a),
            std::nullopt);
}

TEST(StorageFaultInjector, TornFinalWriteIsRecoverableByDesign) {
  TempDir tmp;
  {
    RaftStorage s(tmp.path("r0"), /*sync=*/false);
    s.persist_hard_state(1, std::nullopt);
    for (std::uint64_t i = 1; i <= 5; ++i) {
      s.append_entry(i, RaftEntry{1, cmd("entry-" + std::to_string(i))});
    }
  }
  const std::string wal = tmp.path("r0") + "/wal";
  StorageFaultInjector injector(7);
  const auto act = injector.apply(StorageFault::kTornFinalWrite, wal);
  ASSERT_TRUE(act.has_value());
  EXPECT_LT(act->new_size, act->old_size);
  // A torn final write is exactly what the torn-tail rule tolerates.
  RaftStorage s(tmp.path("r0"), /*sync=*/false);
  EXPECT_TRUE(s.recovered().wal_tail_truncated);
  ASSERT_EQ(s.recovered().log.size(), 4u);
  EXPECT_EQ(s.recovered().log.back().command, cmd("entry-4"));
}

// ------------------------------------------------------------ leader probe

TEST(LeaderProbe, FollowsHintsThenProbesRoundRobinWithCappedBackoff) {
  LeaderProbe probe(3);
  // Valid hints are followed while the 2n budget lasts.
  for (std::uint32_t i = 0; i < 6; ++i) {
    const auto t = probe.on_redirect(1);
    EXPECT_FALSE(t.probed) << "redirect " << i;
    EXPECT_EQ(t.replica, 1u);
  }
  // Budget exhausted: round-robin probes skipping the stale known leader,
  // with doubling backoff capped at kBackoffCapMs.
  double last_backoff = 0.0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto t = probe.on_redirect(1);
    EXPECT_TRUE(t.probed);
    EXPECT_EQ(t.replica, (1 + 1 + i) % 3) << "probe " << i;
    EXPECT_GE(t.backoff_ms, last_backoff);
    EXPECT_LE(t.backoff_ms, LeaderProbe::kBackoffCapMs);
    last_backoff = t.backoff_ms;
  }
  EXPECT_EQ(last_backoff, LeaderProbe::kBackoffCapMs);
  // An out-of-range hint is never followed, budget or not.
  LeaderProbe fresh(3);
  EXPECT_TRUE(fresh.on_redirect(99).probed);
  // A broadcast resets the budget and backoff.
  probe.on_broadcast(2);
  const auto t = probe.on_redirect(0);
  EXPECT_FALSE(t.probed);
  EXPECT_EQ(t.replica, 0u);
}

// ------------------------------------------------- the replicated cluster

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
  ASSERT_EQ(a.footprint.size(), b.footprint.size());
  for (std::size_t i = 0; i < a.footprint.size(); ++i) {
    EXPECT_EQ(a.footprint[i].accuracy, b.footprint[i].accuracy);
    EXPECT_EQ(a.footprint[i].uplink_bytes, b.footprint[i].uplink_bytes);
  }
}

TEST(DurableCluster, ValidationRequiresStorageDirForRestartSchedules) {
  fl::ConvexWorkload w = fl::make_convex_workload(convex_spec());
  auto opt = base_options();
  opt.fault.replica_restart.push_back({3, 2, 50.0, StorageFault::kNone});
  opt.recovery.round_timeout_s = 0.5;
  EXPECT_THROW(FlCluster(std::move(w.clients),
                         std::make_unique<core::AcceptAllFilter>(),
                         w.evaluator, opt),
               std::invalid_argument);
}

TEST(DurableCluster, FaultFreeDurableRunMatchesInMemoryBitForBit) {
  // Turning persistence on changes where control state lives, not what it
  // is: same trajectory, plus real fsynced WAL bytes.
  TempDir tmp;
  const ClusterResult memory = run_once(base_options());
  auto opt = base_options();
  opt.replication.storage_dir = tmp.path("wal");
  const ClusterResult durable = run_once(opt);
  expect_same_trajectory(memory, durable);
  EXPECT_GT(durable.faults.wal_bytes_fsynced, 0u);
  EXPECT_EQ(durable.faults.replica_restarts, 0u);
  EXPECT_EQ(durable.faults.restart_load_errors, 0u);
  EXPECT_EQ(memory.faults.wal_bytes_fsynced, 0u);
}

TEST(DurableCluster, LeaderKillAndRestartMidRoundBitIdentical) {
  // The tentpole property: the round-3 leader is killed after accepting two
  // of four replies, sleeps out its downtime, recovers term/vote/log/
  // snapshot from its own storage directory, and rejoins as a follower —
  // and the trajectory is bit-identical to the fault-free run.
  TempDir tmp;
  const ClusterResult baseline = run_once(base_options());

  auto opt = base_options();
  opt.replication.storage_dir = tmp.path("wal");
  // Short downtime: the failover election alone takes tens of milliseconds,
  // so a 5 ms restart is guaranteed to rejoin while the run is still going.
  opt.fault.replica_restart.push_back({3, 2, 5.0, StorageFault::kNone});
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult restarted = run_once(opt);

  expect_same_trajectory(baseline, restarted);
  EXPECT_EQ(restarted.faults.replica_restarts, 1u);
  EXPECT_EQ(restarted.faults.restart_load_errors, 0u);
  EXPECT_EQ(restarted.faults.leader_crashes, 0u);  // restarts count apart
  EXPECT_TRUE(restarted.faults.crashed_workers.empty());
  EXPECT_GT(restarted.faults.wal_bytes_fsynced, 0u);
  // Recovery replayed the killed leader's persisted entries from its WAL.
  EXPECT_GT(restarted.faults.wal_replay_entries, 0u);
}

TEST(DurableCluster, LastRoundLeaderRestartsBeforeTheRunEnds) {
  // The last round's leader is killed with a 200 ms downtime, which the
  // rest of the run does not last.  The finishing leader lingers for the
  // pending restart (inside its 0.5 s bound), so the killed replica always
  // rejoins, replaying its WAL.
  TempDir tmp;
  const ClusterResult baseline = run_once(base_options());

  auto opt = base_options();
  opt.replication.storage_dir = tmp.path("wal");
  opt.fault.replica_restart.push_back(
      {opt.fl.max_iterations, 2, 200.0, StorageFault::kNone});
  opt.recovery.round_timeout_s = 0.5;
  opt.recovery.max_attempts = 10;
  const ClusterResult restarted = run_once(opt);

  expect_same_trajectory(baseline, restarted);
  EXPECT_EQ(restarted.faults.replica_restarts, 1u);
  EXPECT_EQ(restarted.faults.restart_load_errors, 0u);
  EXPECT_GT(restarted.faults.wal_replay_entries, 0u);
}

TEST(DurableCluster, RestartWithDamagedWalRecoversOrStaysDownLoudly) {
  // Every storage-fault kind, against the tentpole invariant: the restarted
  // replica either recovers (a prefix of its WAL is intact, and the leader
  // catches it up) or refuses loudly and stays down as a minority — the
  // trajectory is bit-identical in all cases, divergence never an option.
  TempDir tmp;
  const ClusterResult baseline = run_once(base_options());
  for (const StorageFault fault :
       {StorageFault::kTornFinalWrite, StorageFault::kBitFlip,
        StorageFault::kTruncate, StorageFault::kFsyncDroppedTail}) {
    auto opt = base_options();
    opt.replication.storage_dir =
        tmp.path("wal_" + std::to_string(static_cast<int>(fault)));
    opt.fault.replica_restart.push_back({3, 2, 5.0, fault});
    opt.recovery.round_timeout_s = 0.5;
    opt.recovery.max_attempts = 10;
    const ClusterResult damaged = run_once(opt);
    expect_same_trajectory(baseline, damaged);
    // Exactly one of: recovered and rejoined, or refused and stayed down.
    EXPECT_EQ(damaged.faults.replica_restarts +
                  damaged.faults.restart_load_errors,
              1u)
        << "fault kind " << static_cast<int>(fault);
    EXPECT_TRUE(damaged.faults.crashed_workers.empty());
  }
}

}  // namespace
}  // namespace cmfl::net
