// Federated multi-task learning on human-activity data (the paper's §V-B
// scenario): every phone is its own *task* with a personal model, tasks are
// coupled through a learned relationship matrix (MOCHA), and CMFL filters
// the irrelevant task updates.
//
//   $ ./mocha_activity [clients=50] [iters=60] [threshold=0.5]
//
// Prints the accuracy trajectory with and without CMFL, and then the
// outlier analysis: which clients were eliminated most, and how that
// correlates with the planted heavy-shift outliers.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/filter.h"
#include "data/synth_har.h"
#include "mtl/mtl_simulation.h"
#include "util/config.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);

  util::Rng rng(7);
  data::SynthHarSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 50));
  spec.features = 48;
  spec.min_samples = 30;
  spec.max_samples = 80;
  spec.outlier_fraction = 0.25;
  spec.outlier_label_flip = 0.6;
  data::HarData har = data::make_synth_har(spec, rng);

  mtl::MtlOptions opt;
  opt.local_epochs = 5;
  opt.batch_size = 4;
  opt.learning_rate = 0.02f;
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 60));
  opt.eval_every = 10;
  opt.lambda = 0.1;
  opt.omega_every = 10;
  opt.seed = 11;

  std::printf("tasks: %zu (of which %zu planted outliers)\n\n", spec.clients,
              static_cast<std::size_t>(std::count(har.is_outlier.begin(),
                                                  har.is_outlier.end(), true)));

  mtl::MtlSimulation plain(&har.dataset, har.partition,
                           std::make_unique<core::AcceptAllFilter>(), opt);
  const fl::SimulationResult base = plain.run();

  mtl::MtlSimulation filtered(
      &har.dataset, har.partition,
      std::make_unique<core::CmflFilter>(
          core::Schedule::constant(cfg.get_double("threshold", 0.45))),
      opt);
  cfg.warn_unused_keys();
  const fl::SimulationResult cmfl = filtered.run();

  std::printf("scheme      | uploads | final accuracy\n");
  std::printf("MOCHA       | %7zu | %.4f\n", base.total_rounds,
              base.final_accuracy);
  std::printf("MOCHA+CMFL  | %7zu | %.4f\n\n", cmfl.total_rounds,
              cmfl.final_accuracy);

  // Outlier analysis: sort clients by elimination count.
  std::vector<std::size_t> order(spec.clients);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cmfl.eliminations_per_client[a] > cmfl.eliminations_per_client[b];
  });
  std::printf("most-eliminated tasks (top 10):\n");
  std::printf("task | eliminations | planted outlier?\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, spec.clients); ++i) {
    const std::size_t k = order[i];
    std::printf("%4zu | %12zu | %s\n", k, cmfl.eliminations_per_client[k],
                har.is_outlier[k] ? "yes" : "no");
  }
  std::printf(
      "\nCMFL's relevance check surfaces the heavy-shift clients without "
      "ever inspecting their raw data — only their update directions.\n");
  return 0;
}
