// Lazy materialization at six-figure population scale (DESIGN.md §11).
//
// Drives a 100,000-device virtual convex population through
// sched::RoundEngine at several cohort sizes and prints the resident-client
// accounting: peak resident clients tracks the per-round cohort plus the
// warm pool, never the population — the property that makes six-figure
// simulated deployments affordable on one machine.
//
// Each run also reports process peak RSS (getrusage ru_maxrss), warm-pool
// eviction counts and work-steal events, and takes the sharded-ingest and
// work-stealing knobs:
//
//   ./scale_sweep                      # 100k devices, cohorts 64/256/1024
//   ./scale_sweep devices=250000 samples=128,512 mode=async iters=8
//   ./scale_sweep million=1 shards=8 parallel=1   # 1M-device round
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/filter.h"
#include "core/threshold.h"
#include "fl/convex_testbed.h"
#include "sched/population.h"
#include "sched/round_engine.h"
#include "util/config.h"
#include "util/table.h"

using namespace cmfl;

namespace {

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto item = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) sizes.push_back(std::stoul(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (sizes.empty()) {
    throw std::invalid_argument("samples= needs a comma-separated list");
  }
  return sizes;
}

/// Process peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);

  // million=1: the headline configuration — one round over a 1,000,000
  // device population, proving memory stays ∝ cohort at seven figures.
  const bool million = cfg.get_int("million", 0) != 0;

  fl::VirtualConvexSpec wspec;
  wspec.devices = static_cast<std::uint64_t>(
      cfg.get_int64("devices", million ? 1000000 : 100000));
  wspec.dim = static_cast<std::size_t>(cfg.get_int("dim", 16));
  wspec.local_steps = cfg.get_int("local_steps", 2);
  wspec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));

  sched::PopulationSpec pspec;
  pspec.devices = wspec.devices;
  pspec.mean_on_fraction = cfg.get_double("on_fraction", 0.7);
  pspec.duty_period_rounds = cfg.get_double("duty_period", 16.0);
  pspec.dropout_mid_round = cfg.get_double("dropout", 0.02);
  pspec.max_resident = static_cast<std::size_t>(cfg.get_int("resident", 32));
  pspec.seed = wspec.seed ^ 0x5EEDULL;

  fl::SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::inv_sqrt(cfg.get_double("lr", 0.1));
  opt.max_iterations =
      static_cast<std::size_t>(cfg.get_int("iters", million ? 1 : 6));
  opt.eval_every = static_cast<std::size_t>(
      cfg.get_int("eval_every", million ? 1 : 3));
  opt.seed = wspec.seed;
  opt.parallel = cfg.get_int("parallel", million ? 1 : 0) != 0;
  opt.sharding.shards =
      static_cast<std::size_t>(cfg.get_int("shards", million ? 8 : 0));
  opt.schedule.mode =
      sched::parse_round_mode(cfg.get_string("mode", "overselect"));
  opt.schedule.selection = sched::Selection::kAvailabilityAware;

  const auto samples = parse_sizes(
      cfg.get_string("samples", million ? "1024" : "64,256,1024"));
  const double threshold = cfg.get_double("threshold", 0.45);

  std::printf("population: %llu virtual devices, dim %zu, mode %s, "
              "warm pool %zu, shards %zu, parallel %d\n\n",
              static_cast<unsigned long long>(wspec.devices), wspec.dim,
              sched::round_mode_name(opt.schedule.mode).c_str(),
              pspec.max_resident, opt.sharding.shards, opt.parallel ? 1 : 0);

  util::Table table({"cohort", "peak_resident", "resident_bound",
                     "materializations", "evictions", "steals", "invited",
                     "reported", "final_acc", "uploaded_MB", "peak_rss_MB",
                     "pop_fraction"});
  for (const auto sample : samples) {
    auto run_opt = opt;
    run_opt.schedule.sample_size = sample;
    run_opt.schedule.async_buffer = sample > 4 ? sample / 4 : 1;

    auto workload = fl::make_virtual_convex(wspec);
    sched::Population population(pspec, workload.factory);
    sched::RoundEngine engine(
        population,
        core::make_filter("cmfl", core::Schedule::constant(threshold)),
        workload.evaluator, run_opt);
    const auto result = engine.run();

    // Resident clients can never exceed one cohort in flight plus the warm
    // pool (async mode overlaps cohorts, bounded by sample_size in flight).
    const std::size_t bound = sample + pspec.max_resident;
    table.add_row(
        {util::fmt_count(static_cast<long long>(sample)),
         util::fmt_count(
             static_cast<long long>(result.sched.peak_resident_clients)),
         util::fmt_count(static_cast<long long>(bound)),
         util::fmt_count(static_cast<long long>(result.sched.materializations)),
         util::fmt_count(static_cast<long long>(result.sched.evictions)),
         util::fmt_count(static_cast<long long>(result.sched.steals)),
         util::fmt_count(static_cast<long long>(result.sched.invited)),
         util::fmt_count(static_cast<long long>(result.sched.reported)),
         util::fmt(result.sim.final_accuracy, 4),
         util::fmt(static_cast<double>(result.sim.uploaded_bytes) /
                       (1024.0 * 1024.0),
                   2),
         util::fmt(peak_rss_mib(), 1),
         util::fmt(static_cast<double>(result.sched.peak_resident_clients) /
                       static_cast<double>(wspec.devices),
                   5)});
  }
  table.print(std::cout);
  std::printf("\npeak resident client state scales with the sampled cohort "
              "(pop_fraction << 1), not the population.\n");

  cfg.warn_unused_keys();
  return 0;
}
