// Fault-injection sweep over the cluster emulation.
//
// Part 1 sweeps the frame-drop rate on every link (with a little corruption
// and duplication mixed in) while recovery runs at quorum 1.0.  The
// headline property: the learning trajectory — and the final parameter
// vector, bit for bit — is identical to the fault-free baseline at every
// drop rate; only the retransmission/byte accounting grows.  That is the
// "exactly-once training per round" guarantee of the sequence-numbered
// protocol (DESIGN.md §9).
//
// Part 2 demonstrates the degraded regime: a third of the workers crash
// mid-run and quorum 0.5 plus staleness suspicion keeps the survivors
// training.
//
//   $ ./fault_sweep [workers=6] [iters=10] [timeout_ms=200] [seed=99]
#include <cstdio>

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
  const double timeout_s = cfg.get_double("timeout_ms", 200.0) / 1000.0;
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 99));
  cfg.warn_unused_keys();

  const fl::DigitsMlpSpec spec = workload_spec(workers);
  net::ClusterOptions base;
  base.fl.local_epochs = 2;
  base.fl.batch_size = 5;
  base.fl.learning_rate = core::Schedule::constant(0.1);
  base.fl.max_iterations = iters;
  base.fl.eval_every = 5;

  std::printf("fault sweep: %zu workers, %zu iterations, CMFL filter\n\n",
              workers, iters);
  const net::ClusterResult baseline = run_once(spec, base);

  std::printf(
      "drop  retransmits  dropped  corrupt  redundant  retx-bytes  "
      "timeout-rounds  final-acc  params==baseline\n");
  for (const double drop : {0.0, 0.1, 0.2, 0.3}) {
    net::ClusterOptions opt = base;
    if (drop > 0.0) {
      opt.fault.seed = seed;
      opt.fault.downlink = {.drop_prob = drop, .corrupt_prob = 0.05,
                            .duplicate_prob = 0.05};
      opt.fault.uplink = {.drop_prob = drop, .corrupt_prob = 0.05,
                          .duplicate_prob = 0.05};
      opt.recovery.round_timeout_s = timeout_s;
      opt.recovery.backoff = 1.5;
      opt.recovery.max_attempts = 12;
      opt.recovery.quorum = 1.0;
    }
    const net::ClusterResult r = run_once(spec, opt);
    const bool identical = r.sim.final_params == baseline.sim.final_params;
    std::printf(
        "%.2f  %11llu  %7llu  %7llu  %9llu  %10llu  %14llu  %9.3f  %s\n",
        drop, static_cast<unsigned long long>(r.faults.retransmits),
        static_cast<unsigned long long>(r.faults.frames_dropped),
        static_cast<unsigned long long>(r.faults.frames_corrupted),
        static_cast<unsigned long long>(r.faults.redundant_frames),
        static_cast<unsigned long long>(r.uplink_retransmitted_bytes +
                                        r.downlink_retransmitted_bytes),
        static_cast<unsigned long long>(r.faults.timed_out_rounds),
        r.sim.final_accuracy, identical ? "yes" : "NO");
  }

  // --- Crash-stop + quorum demonstration ---
  const std::uint64_t crash_iter = iters / 2 + 1;
  net::ClusterOptions crash_opt = base;
  crash_opt.fault.seed = seed;
  for (std::size_t k = 0; k < workers / 3; ++k) {
    crash_opt.fault.crash_at_iteration[k] = crash_iter;
  }
  crash_opt.recovery.round_timeout_s = timeout_s;
  crash_opt.recovery.quorum = 0.5;
  crash_opt.recovery.max_attempts = 4;
  crash_opt.recovery.suspect_after_stale_rounds = 2;
  const net::ClusterResult crashed = run_once(spec, crash_opt);

  std::printf("\ncrash-stop demo: %zu of %zu workers die at iteration %llu "
              "(quorum 0.5, suspect after 2 stale rounds)\n",
              workers / 3, workers,
              static_cast<unsigned long long>(crash_iter));
  std::printf("  declared crashed    :");
  for (const auto k : crashed.faults.crashed_workers) {
    std::printf(" %u", k);
  }
  std::printf("\n  quorum rounds       : %llu\n",
              static_cast<unsigned long long>(crashed.faults.quorum_rounds));
  std::printf("  final accuracy      : %.3f (fault-free baseline %.3f)\n",
              crashed.sim.final_accuracy, baseline.sim.final_accuracy);

  // Control-plane counters are part of every FaultReport; without
  // replication they must all read zero (see failover_sweep for the
  // replicated runs that exercise them).
  std::printf("\ncontrol plane (single master — all zero by construction)\n");
  std::printf("  elections held      : %llu\n",
              static_cast<unsigned long long>(crashed.faults.elections_held));
  std::printf("  leader crashes      : %llu\n",
              static_cast<unsigned long long>(crashed.faults.leader_crashes));
  std::printf(
      "  log entries repl.   : %llu\n",
      static_cast<unsigned long long>(crashed.faults.log_entries_replicated));
  std::printf(
      "  snapshot transfers  : %llu\n",
      static_cast<unsigned long long>(crashed.faults.snapshot_transfers));
  std::printf(
      "  leader redirects    : %llu\n",
      static_cast<unsigned long long>(crashed.faults.leader_redirects));
  return 0;
}
