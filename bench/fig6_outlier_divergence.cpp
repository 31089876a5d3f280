// Figure 6: normalized model divergence of outlier vs non-outlier clients
// in the HAR multi-task workload.
//
// Protocol (paper §V-B): run MOCHA+CMFL, find the clients whose updates are
// *frequently eliminated* (the paper found 37/142 clients responsible for
// 84.5% of eliminations), split the population on that criterion, and
// compare the two groups' Eq. 7 divergence CDFs against the mean model.
// The frequently-eliminated group must show a clearly heavier divergence
// tail.  The synthetic HAR generator plants ground-truth outliers, so this
// bench also cross-checks the elimination-based split against the planted
// labels (precision of the detector).
#include "bench_common.h"

#include <algorithm>
#include <numeric>

#include "data/synth_har.h"
#include "fl/divergence.h"
#include "mtl/mtl_simulation.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Figure 6: outlier vs non-outlier model divergence (HAR)\n");

  util::Rng rng(static_cast<std::uint64_t>(cfg.get_int64("seed", 3)));
  data::SynthHarSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 60));
  spec.features = static_cast<std::size_t>(cfg.get_int("features", 48));
  spec.min_samples = 30;
  spec.max_samples = 80;
  spec.outlier_fraction = 0.25;
  spec.outlier_label_flip = 0.6;
  data::HarData har = data::make_synth_har(spec, rng);

  mtl::MtlOptions opt;
  opt.local_epochs = cfg.get_int("epochs", 5);
  opt.batch_size = 4;
  opt.learning_rate = static_cast<float>(cfg.get_double("lr", 0.02));
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 60));
  opt.eval_every = 10;
  opt.lambda = 0.1;
  opt.seed = 11;
  mtl::MtlSimulation sim(
      &har.dataset, har.partition,
      std::make_unique<core::CmflFilter>(
          core::Schedule::constant(cfg.get_double("threshold", 0.45))),
      opt);
  const fl::SimulationResult result = sim.run();

  // Split clients by elimination count: "frequently eliminated" = above the
  // population mean (the paper's split used an absolute count; the mean is
  // the scale-free equivalent).
  const std::size_t m = har.partition.clients();
  const double mean_elims =
      std::accumulate(result.eliminations_per_client.begin(),
                      result.eliminations_per_client.end(), 0.0) /
      static_cast<double>(m);
  std::vector<bool> frequently_eliminated(m);
  std::size_t outlier_count = 0;
  std::size_t elims_in_outliers = 0, total_elims = 0;
  for (std::size_t k = 0; k < m; ++k) {
    frequently_eliminated[k] =
        static_cast<double>(result.eliminations_per_client[k]) > mean_elims;
    outlier_count += frequently_eliminated[k];
    total_elims += result.eliminations_per_client[k];
    if (frequently_eliminated[k]) {
      elims_in_outliers += result.eliminations_per_client[k];
    }
  }
  if (outlier_count == 0 || outlier_count == m) {
    std::printf("degenerate split (%zu/%zu flagged) — raise iters or tune "
                "threshold\n", outlier_count, m);
    return 1;
  }

  // Per-task weight rows vs the mean task model (the "global model" of the
  // MTL setting).
  const std::size_t d = har.dataset.features();
  std::vector<std::vector<float>> client_params(m, std::vector<float>(d));
  std::vector<float> mean_model(d, 0.0f);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < d; ++j) {
      client_params[k][j] = result.final_params[k * d + j];
      mean_model[j] += client_params[k][j] / static_cast<float>(m);
    }
  }
  const auto outlier_d = fl::normalized_model_divergence_subset(
      mean_model, client_params, frequently_eliminated, true);
  const auto normal_d = fl::normalized_model_divergence_subset(
      mean_model, client_params, frequently_eliminated, false);
  const stats::Cdf outlier_cdf(outlier_d);
  const stats::Cdf normal_cdf(normal_d);
  bench::print_cdf("outliers", outlier_cdf);
  bench::print_cdf("non_outliers", normal_cdf);

  // Cross-check against the planted ground truth.
  std::size_t hits = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (frequently_eliminated[k] && har.is_outlier[k]) ++hits;
  }

  util::Table table({"population", "clients", "median d_j",
                     "frac d_j > 100%", "max d_j"});
  auto frac_above = [](const std::vector<double>& v) {
    std::size_t above = 0;
    for (double x : v) above += x > 1.0;
    return static_cast<double>(above) / static_cast<double>(v.size());
  };
  table.add_row({"frequently eliminated", std::to_string(outlier_count),
                 util::fmt(outlier_cdf.median(), 2),
                 util::fmt(frac_above(outlier_d) * 100, 1) + "%",
                 util::fmt(outlier_cdf.max(), 1)});
  table.add_row({"rest", std::to_string(m - outlier_count),
                 util::fmt(normal_cdf.median(), 2),
                 util::fmt(frac_above(normal_d) * 100, 1) + "%",
                 util::fmt(normal_cdf.max(), 1)});
  table.print(std::cout);

  std::printf(
      "\neliminations concentrated in flagged clients: %.1f%% (paper: "
      "84.5%% in 37/142 clients)\n",
      100.0 * static_cast<double>(elims_in_outliers) /
          static_cast<double>(std::max<std::size_t>(total_elims, 1)));
  std::printf("flagged clients that are planted outliers: %zu/%zu\n", hits,
              outlier_count);
  std::printf(
      "paper shape: the frequently-eliminated population shows a clearly "
      "heavier divergence distribution than the rest\n");
  cfg.warn_unused_keys();
  return 0;
}
