// CMFL savings under production round scheduling (DESIGN.md §11).
//
// The paper evaluates CMFL in fully synchronous rounds over always-on
// clients.  This bench re-asks the question under the round shapes a
// production scheduler actually runs: the digits-MLP learning workload
// (same dataset, same partition, same seed) is driven through
// sched::RoundEngine in all three round modes — sync, over-selection with
// straggler discard, and FedBuff-style buffered-async — once with the
// vanilla accept-all filter and once with the CMFL relevance filter.  For
// each mode the table reports the rounds-valued and bytes-valued Saving^a
// (fl::saving / fl::saving_bytes) plus the scheduling counters, so the
// effect of stragglers and staleness on relevance filtering is visible in
// one run.
//
//   ./bench_sched devices=60 sample=20 iters=40 target=0.55
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "core/filter.h"
#include "core/threshold.h"
#include "fl/metrics.h"
#include "fl/workloads.h"
#include "sched/population.h"
#include "sched/round_engine.h"
#include "util/config.h"
#include "util/table.h"

using namespace cmfl;

namespace {

fl::DigitsMlpSpec workload_spec(const util::Config& cfg) {
  fl::DigitsMlpSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("devices", 60));
  spec.train_samples =
      static_cast<std::size_t>(cfg.get_int("train_samples", 1800));
  spec.test_samples =
      static_cast<std::size_t>(cfg.get_int("test_samples", 400));
  spec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  return spec;
}

sched::PopulationSpec population_spec(const util::Config& cfg,
                                      std::uint64_t devices,
                                      std::uint64_t seed) {
  sched::PopulationSpec spec;
  spec.devices = devices;
  spec.mean_on_fraction = cfg.get_double("on_fraction", 0.8);
  spec.duty_period_rounds = cfg.get_double("duty_period", 12.0);
  spec.dropout_mid_round = cfg.get_double("dropout", 0.03);
  spec.latency_log_sigma = cfg.get_double("log_sigma", 0.6);
  spec.max_resident =
      static_cast<std::size_t>(cfg.get_int("resident", 24));
  spec.seed = seed ^ 0x5EEDULL;
  return spec;
}

fl::SimulationOptions base_options(const util::Config& cfg) {
  fl::SimulationOptions opt;
  opt.local_epochs = cfg.get_int("epochs", 4);  // E = 4 (paper)
  opt.batch_size = static_cast<std::size_t>(cfg.get_int("batch", 2));
  opt.learning_rate = core::Schedule::inv_sqrt(cfg.get_double("lr", 0.15));
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 80));
  opt.eval_every = static_cast<std::size_t>(cfg.get_int("eval_every", 1));
  opt.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  opt.schedule.selection = sched::parse_selection(
      cfg.get_string("selection", "available"));
  opt.schedule.sample_size =
      static_cast<std::size_t>(cfg.get_int("sample", 20));
  opt.schedule.async_buffer = static_cast<std::size_t>(
      cfg.get_int("buffer", std::max(1, cfg.get_int("sample", 20) / 4)));
  opt.schedule.staleness_exponent = cfg.get_double("staleness_exp", 0.5);
  return opt;
}

core::Schedule threshold_schedule(const util::Config& cfg) {
  // The paper sweeps constant relevance thresholds plus the decaying
  // schedule v_t = v0/sqrt(t); vt=const selects the former.
  const auto kind = cfg.get_string("vt", "inv_sqrt");
  const double v0 = cfg.get_double("threshold", kind == "const" ? 0.44 : 0.8);
  if (kind == "const") return core::Schedule::constant(v0);
  if (kind == "inv_sqrt") return core::Schedule::inv_sqrt(v0);
  throw std::invalid_argument("vt= must be const | inv_sqrt");
}

sched::EngineResult run_mode(const fl::DigitsMlpSpec& wspec,
                             const sched::PopulationSpec& pspec,
                             fl::SimulationOptions opt, sched::RoundMode mode,
                             const std::string& filter_kind,
                             const core::Schedule& threshold) {
  opt.schedule.mode = mode;
  auto workload = fl::make_digits_mlp_population(wspec);
  sched::Population population(pspec, workload.factory);
  sched::RoundEngine engine(population,
                            core::make_filter(filter_kind, threshold),
                            workload.evaluator, opt);
  return engine.run();
}

std::string opt_kb(const std::optional<std::uint64_t>& v) {
  return v ? util::fmt(static_cast<double>(*v) / 1024.0, 1)
           : "not reached";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  const auto wspec = workload_spec(cfg);
  const auto pspec =
      population_spec(cfg, static_cast<std::uint64_t>(wspec.clients),
                      wspec.seed);
  const auto opt = base_options(cfg);
  const double target = cfg.get_double("target", 0.55);
  const auto threshold = threshold_schedule(cfg);

  std::printf(
      "digits_mlp: %zu devices, sample %zu, %zu iters, target %.2f, "
      "v(t) %s\n",
      wspec.clients, opt.schedule.sample_size, opt.max_iterations, target,
      threshold.describe().c_str());

  util::Table savings({"mode", "filter", "phi_rounds", "phi_KB", "final_acc",
                       "rounds_to_a", "KB_to_a", "saving", "byte_saving"});
  util::Table sched_table({"mode", "filter", "invited", "reported",
                           "unavailable", "dropouts", "stragglers", "stale",
                           "peak_resident", "materializations"});

  for (const auto mode :
       {sched::RoundMode::kSync, sched::RoundMode::kOverSelect,
        sched::RoundMode::kBufferedAsync}) {
    const auto vanilla =
        run_mode(wspec, pspec, opt, mode, "vanilla", threshold);
    const auto cmfl_run = run_mode(wspec, pspec, opt, mode, "cmfl", threshold);
    const auto row =
        fl::make_saving_row(sched::round_mode_name(mode), target, vanilla.sim,
                            cmfl_run.sim);

    for (const auto* r : {&vanilla, &cmfl_run}) {
      const bool is_cmfl = (r == &cmfl_run);
      savings.add_row(
          {sched::round_mode_name(mode), is_cmfl ? "cmfl" : "vanilla",
           util::fmt_count(static_cast<long long>(r->sim.total_rounds)),
           util::fmt(static_cast<double>(r->sim.uploaded_bytes) / 1024.0, 1),
           util::fmt(r->sim.final_accuracy, 4),
           bench::opt_rounds(is_cmfl ? row.algo_rounds : row.vanilla_rounds),
           opt_kb(is_cmfl ? row.algo_bytes : row.vanilla_bytes),
           is_cmfl ? bench::opt_saving(row.saving) : "1.00x",
           is_cmfl ? bench::opt_saving(row.byte_saving) : "1.00x"});
      const auto& s = r->sched;
      sched_table.add_row(
          {sched::round_mode_name(mode), is_cmfl ? "cmfl" : "vanilla",
           util::fmt_count(static_cast<long long>(s.invited)),
           util::fmt_count(static_cast<long long>(s.reported)),
           util::fmt_count(static_cast<long long>(s.unavailable_invited)),
           util::fmt_count(static_cast<long long>(s.mid_round_dropouts)),
           util::fmt_count(static_cast<long long>(s.discarded_stragglers)),
           util::fmt_count(static_cast<long long>(s.stale_discarded)),
           util::fmt_count(static_cast<long long>(s.peak_resident_clients)),
           util::fmt_count(static_cast<long long>(s.materializations))});
    }
  }

  std::printf("\nSaving^a at target accuracy %.2f (rounds- and byte-valued "
              "Phi, vanilla / cmfl per mode):\n",
              target);
  savings.print(std::cout);
  std::printf("\nScheduling counters:\n");
  sched_table.print(std::cout);

  cfg.warn_unused_keys();
  return 0;
}
