// Federated image classification with the digits CNN — the paper's MNIST
// scenario at laptop scale, with a live view of what CMFL is doing.
//
//   $ ./federated_digits [clients=40] [iters=30] [threshold=0.46]
//
// Trains the two-conv-layer CNN across non-IID clients (each holding 1-2
// digit classes) with the CMFL filter, and prints a per-round trace:
// how many clients uploaded, the mean relevance, and the test accuracy —
// the "jagged but cheap" convergence the paper describes.
#include <cstdio>

#include "core/filter.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "util/config.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);

  fl::DigitsCnnSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 40));
  spec.train_samples = spec.clients * 30;
  spec.test_samples = 300;
  spec.cnn.image_size = 12;
  spec.cnn.conv1_filters = 4;
  spec.cnn.conv2_filters = 8;
  spec.cnn.fc_width = 32;
  spec.digits.image_size = 12;
  spec.digits.noise_stddev = 0.25f;
  spec.digits.noise_density = 0.15f;

  fl::SimulationOptions opt;
  opt.local_epochs = 4;
  opt.batch_size = 2;
  opt.learning_rate = core::Schedule::inv_sqrt(0.15);
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 30));
  opt.eval_every = 1;

  const double threshold = cfg.get_double("threshold", 0.46);
  cfg.warn_unused_keys();
  fl::Workload w = fl::make_digits_cnn_workload(spec);
  std::printf("workload: %s\n", w.description.c_str());
  std::printf("CMFL threshold: %.2f (constant)\n\n", threshold);

  fl::FederatedSimulation sim(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(threshold)),
      w.evaluator, opt);
  const fl::SimulationResult r = sim.run();

  std::printf("iter | uploads/%zu | mean relevance | accuracy\n",
              spec.clients);
  for (const auto& rec : r.history) {
    std::printf("%4zu | %10zu | %14.3f | %s\n", rec.iteration, rec.uploads,
                rec.mean_score,
                rec.evaluated()
                    ? (std::to_string(rec.accuracy).substr(0, 5)).c_str()
                    : "-");
  }

  std::size_t eliminated = 0;
  for (std::size_t e : r.eliminations_per_client) eliminated += e;
  std::printf(
      "\ntotal uploads: %zu of %zu possible (%.0f%% of the uplink traffic "
      "eliminated)\nfinal accuracy: %.3f\n",
      r.total_rounds, r.total_rounds + eliminated,
      100.0 * static_cast<double>(eliminated) /
          static_cast<double>(r.total_rounds + eliminated),
      r.final_accuracy);
  return 0;
}
