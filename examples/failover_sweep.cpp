// Master-failover sweep over the replicated control plane.
//
// Runs the digits-MLP workload against a 3-replica master (DESIGN.md §14)
// and demonstrates the headline guarantee: killing the current leader
// mid-round — at progressively nastier points in the round — never changes
// what the cluster learns.  Every crashed run finishes with the same final
// parameter vector, bit for bit, as the fault-free single-master baseline;
// only the failover accounting (elections, re-broadcast bytes, control
// traffic) grows.
//
// The sweep prints one row per crash schedule (the final row is a crash-
// *restart*: the killed leader recovers from its durable WAL + snapshot,
// DESIGN.md §15, and rejoins as a follower):
//   crash-round    round whose leader is killed (- = no crash)
//   after-replies  replies the doomed leader accepts before dying
//   elections      Raft elections held across the run
//   log-entries    replicated control-plane log entries
//   snapshots      InstallSnapshot transfers (log compaction catch-ups)
//   restarts       crash-restart recoveries completed from storage
//   wal-KiB        WAL bytes covered by an fsync (durable rows only)
//   replay         log entries replayed from the WAL at restarts
//   ctl-KiB        Raft traffic between replicas (wall-clock coupled)
//   retx-bytes     data-plane re-broadcast/re-upload bytes
//   params==base   bit-identity of the final model vs. the baseline
//
//   $ ./failover_sweep [workers=6] [iters=10] [timeout_ms=500] [seed=99]
//                      [storage=/tmp/cmfl_failover_wal]
#include <cstdio>
#include <string>

#include "core/filter.h"
#include "fl/workloads.h"
#include "net/cluster.h"
#include "util/config.h"

using namespace cmfl;

namespace {

fl::DigitsMlpSpec workload_spec(std::size_t workers) {
  fl::DigitsMlpSpec spec;
  spec.clients = workers;
  spec.train_samples = 30 * workers;
  spec.test_samples = 80;
  spec.hidden = {16};
  spec.digits.image_size = 8;
  spec.seed = 5;
  return spec;
}

net::ClusterResult run_once(const fl::DigitsMlpSpec& spec,
                            const net::ClusterOptions& opt) {
  fl::Workload w = fl::make_digits_mlp_workload(spec);
  net::FlCluster cluster(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w.evaluator, opt);
  return cluster.run();
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  const auto workers = static_cast<std::size_t>(cfg.get_int("workers", 6));
  const auto iters = static_cast<std::size_t>(cfg.get_int("iters", 10));
  const double timeout_s = cfg.get_double("timeout_ms", 500.0) / 1000.0;
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 99));
  const std::string storage =
      cfg.get_string("storage", "/tmp/cmfl_failover_wal");
  cfg.warn_unused_keys();

  const fl::DigitsMlpSpec spec = workload_spec(workers);
  net::ClusterOptions base;
  base.fl.local_epochs = 2;
  base.fl.batch_size = 5;
  base.fl.learning_rate = core::Schedule::constant(0.1);
  base.fl.max_iterations = iters;
  base.fl.eval_every = 5;

  std::printf(
      "failover sweep: %zu workers, %zu iterations, 3 master replicas\n\n",
      workers, iters);

  // The reference trajectory comes from the plain single-master cluster:
  // replication itself must be invisible, so every replicated run below is
  // compared against this.
  const net::ClusterResult baseline = run_once(spec, base);

  net::ClusterOptions repl = base;
  repl.replication.replicas = 3;
  repl.replication.seed = seed;

  struct Row {
    const char* label;
    long crash_round;     // -1 = fault-free
    std::uint32_t after;  // replies accepted before the kill
    bool restart;         // true: crash-restart from durable storage
  };
  const Row rows[] = {
      {"-", -1, 0, false},
      {"2", 2, 0, false},  // right after the broadcast, before any reply
      {"mid", static_cast<long>(iters / 2), 2, false},  // mid-round
      {"last",
       static_cast<long>(iters > 1 ? iters - 1 : 1),
       static_cast<std::uint32_t>(workers > 0 ? workers - 1 : 0), false},
      // Crash-restart: the round-(iters/2) leader dies after two replies,
      // then recovers from its WAL + snapshot and rejoins mid-run.
      {"mid+restart", static_cast<long>(iters / 2), 2, true},
  };

  std::printf(
      "crash-round  after-replies  elections  log-entries  snapshots  "
      "restarts  wal-KiB  replay  ctl-KiB  retx-bytes  params==base\n");
  for (const Row& row : rows) {
    net::ClusterOptions opt = repl;
    if (row.crash_round >= 0) {
      if (row.restart) {
        opt.replication.storage_dir = storage;
        opt.fault.replica_restart.push_back(
            {static_cast<std::uint64_t>(row.crash_round), row.after, 50.0,
             net::StorageFault::kNone});
      } else {
        opt.fault.leader_crash.push_back(
            {static_cast<std::uint64_t>(row.crash_round), row.after});
      }
      opt.recovery.round_timeout_s = timeout_s;
      opt.recovery.max_attempts = 12;
    }
    const net::ClusterResult r = run_once(spec, opt);
    const bool identical = r.sim.final_params == baseline.sim.final_params;
    std::printf(
        "%11s  %13u  %9llu  %11llu  %9llu  %8llu  %7.1f  %6llu  %7.1f  "
        "%10llu  %s\n",
        row.label, row.after,
        static_cast<unsigned long long>(r.faults.elections_held),
        static_cast<unsigned long long>(r.faults.log_entries_replicated),
        static_cast<unsigned long long>(r.faults.snapshot_transfers),
        static_cast<unsigned long long>(r.faults.replica_restarts),
        static_cast<double>(r.faults.wal_bytes_fsynced) / 1024.0,
        static_cast<unsigned long long>(r.faults.wal_replay_entries),
        static_cast<double>(r.control_plane_bytes) / 1024.0,
        static_cast<unsigned long long>(r.uplink_retransmitted_bytes +
                                        r.downlink_retransmitted_bytes),
        identical ? "yes" : "NO");
  }

  std::printf(
      "\nevery row must say yes: failover replays the committed round "
      "state, it never re-trains or re-aggregates differently.\n");
  return 0;
}
