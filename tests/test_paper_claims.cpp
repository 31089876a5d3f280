// The paper's headline claims as down-scaled, seeded orderings (ctest label
// `paper`).  Each test runs a bench/ workload at a smaller scale and asserts
// the shape EXPERIMENTS.md reports for the full-size bench, with margin:
//
//   * Fig. 2 — CMFL's relevance stays in a narrow band over training while
//     Gaia's significance ‖u‖/‖x‖ decays (bench/fig2_measure_stability);
//   * Fig. 4 / Table I — to a target accuracy, CMFL saves uploads over
//     vanilla FL while Gaia's saving is ≈ 1 (bench/fig4_table1_vanilla_fl);
//   * Fig. 6 — CMFL's eliminations concentrate on a minority of clients,
//     and that minority over-represents the planted outliers of the HAR
//     multi-task workload (bench/fig6_outlier_divergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/filter.h"
#include "data/synth_har.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "mtl/mtl_simulation.h"

namespace cmfl::fl {
namespace {

/// bench::digits_cnn_spec's CNN on 20 clients of 20 samples each.
DigitsCnnSpec cnn_spec(std::uint64_t seed) {
  DigitsCnnSpec spec;
  spec.clients = 20;
  spec.train_samples = spec.clients * 20;
  spec.test_samples = 300;
  spec.cnn.image_size = 12;
  spec.cnn.conv1_filters = 4;
  spec.cnn.conv2_filters = 8;
  spec.cnn.fc_width = 32;
  spec.digits.image_size = 12;
  spec.digits.noise_stddev = 0.25f;
  spec.digits.noise_density = 0.15f;
  spec.seed = seed;
  return spec;
}

/// bench::digits_cnn_options at 30 iterations.
SimulationOptions cnn_options() {
  SimulationOptions opt;
  opt.local_epochs = 4;
  opt.batch_size = 2;
  opt.learning_rate = core::Schedule::inv_sqrt(0.15);
  opt.max_iterations = 30;
  opt.eval_every = 1;
  return opt;
}

SimulationResult run_scheme(const DigitsCnnSpec& spec, const std::string& kind,
                            double threshold, const SimulationOptions& opt) {
  Workload w = make_digits_cnn_workload(spec);
  FederatedSimulation sim(
      std::move(w.clients),
      core::make_filter(kind, core::Schedule::constant(threshold)),
      w.evaluator, opt);
  return sim.run();
}

/// Per-round mean filter score from iteration 2 on (iteration 1 is CMFL's
/// cold start, scored 1.0 by definition).
std::vector<double> scores_after_cold_start(const SimulationResult& r) {
  std::vector<double> scores;
  for (const IterationRecord& rec : r.history) {
    if (rec.iteration >= 2) scores.push_back(rec.mean_score);
  }
  return scores;
}

TEST(PaperClaims, Fig2RelevanceStaysInABandWhileGaiaSignificanceDecays) {
  // Threshold 0 filters nothing: both runs follow the vanilla trajectory
  // and only record their measure, as in bench/fig2_measure_stability.
  const DigitsCnnSpec spec = cnn_spec(2);
  SimulationOptions opt = cnn_options();
  opt.eval_every = 0;
  const std::vector<double> gaia =
      scores_after_cold_start(run_scheme(spec, "gaia", 0.0, opt));
  const std::vector<double> cmfl =
      scores_after_cold_start(run_scheme(spec, "cmfl", 0.0, opt));
  ASSERT_EQ(gaia.size(), opt.max_iterations - 1);
  ASSERT_EQ(cmfl.size(), gaia.size());

  const auto [cmfl_min, cmfl_max] =
      std::minmax_element(cmfl.begin(), cmfl.end());
  const double cmfl_band = *cmfl_max / *cmfl_min;
  const double gaia_decay = gaia.front() / gaia.back();
  // Measured: band 1.13, decay 4.98.
  EXPECT_LT(cmfl_band, 1.5);
  EXPECT_GT(gaia_decay, 3.0);
  EXPECT_GT(gaia_decay, 2.0 * cmfl_band);
}

/// The paper's protocol: sweep thresholds, keep the best saving over
/// vanilla at `target` among the runs that reach it.
std::optional<double> best_saving(const DigitsCnnSpec& spec,
                                  const std::string& kind,
                                  const std::vector<double>& thresholds,
                                  const SimulationResult& vanilla,
                                  double target) {
  std::optional<double> best;
  for (const double v : thresholds) {
    const std::optional<double> s =
        saving(vanilla, run_scheme(spec, kind, v, cnn_options()), target);
    if (s && (!best || *s > *best)) best = s;
  }
  return best;
}

TEST(PaperClaims, Fig4CmflSavesUploadsWhereGaiaDoesNot) {
  const DigitsCnnSpec spec = cnn_spec(5);
  const double target = 0.6;
  const SimulationResult vanilla =
      run_scheme(spec, "vanilla", 0.0, cnn_options());
  ASSERT_TRUE(vanilla.rounds_to_accuracy(target).has_value());

  // Gaia's larger thresholds starve training below the target; its only
  // run that reaches it filters next to nothing.
  const std::optional<double> gaia =
      best_saving(spec, "gaia", {0.02, 0.1}, vanilla, target);
  const std::optional<double> cmfl =
      best_saving(spec, "cmfl", {0.40, 0.44}, vanilla, target);
  ASSERT_TRUE(gaia.has_value());
  ASSERT_TRUE(cmfl.has_value());
  // Measured: Gaia 1.00x, CMFL 1.58x.
  EXPECT_GT(*gaia, 0.9);
  EXPECT_LT(*gaia, 1.1);
  EXPECT_GT(*cmfl, 1.25);
  EXPECT_GT(*cmfl, *gaia + 0.2);
}

/// Fig. 6's split of one MOCHA+CMFL run: the clients eliminated more often
/// than the mean ("frequently eliminated") against the planted outliers.
struct OutlierSplit {
  std::size_t clients = 0;
  std::size_t planted = 0;        // planted outliers in the population
  std::size_t flagged = 0;        // frequently eliminated clients
  std::size_t flagged_planted = 0;
  std::size_t eliminations = 0;
  std::size_t flagged_eliminations = 0;
};

/// bench/fig6_outlier_divergence's setup (60 HAR tasks, 25 % planted
/// outliers, threshold 0.45, 60 rounds) on data seed `seed`.
OutlierSplit fig6_split(std::uint64_t seed) {
  util::Rng rng(seed);
  data::SynthHarSpec spec;
  spec.clients = 60;
  spec.features = 48;
  spec.min_samples = 30;
  spec.max_samples = 80;
  spec.outlier_fraction = 0.25;
  spec.outlier_label_flip = 0.6;
  const data::HarData har = data::make_synth_har(spec, rng);

  mtl::MtlOptions opt;
  opt.local_epochs = 5;
  opt.batch_size = 4;
  opt.learning_rate = 0.02f;
  opt.max_iterations = 60;
  opt.eval_every = 10;
  opt.lambda = 0.1;
  opt.seed = 11;
  mtl::MtlSimulation sim(
      &har.dataset, har.partition,
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      opt);
  const std::vector<std::size_t> elims = sim.run().eliminations_per_client;

  OutlierSplit s;
  s.clients = elims.size();
  s.eliminations = std::accumulate(elims.begin(), elims.end(), std::size_t{0});
  const double mean =
      static_cast<double>(s.eliminations) / static_cast<double>(s.clients);
  for (std::size_t k = 0; k < s.clients; ++k) {
    s.planted += har.is_outlier[k] ? 1 : 0;
    if (static_cast<double>(elims[k]) <= mean) continue;
    ++s.flagged;
    s.flagged_eliminations += elims[k];
    s.flagged_planted += har.is_outlier[k] ? 1 : 0;
  }
  return s;
}

TEST(PaperClaims, Fig6EliminationsConcentrateOnThePlantedOutliers) {
  // Measured on seeds 1-8: 11-22 of 60 clients flagged, holding 84.6-100 %
  // of the eliminations; 50-82 % of the flagged are planted outliers, at
  // least 2.0x each run's planted share.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("data seed " + std::to_string(seed));
    const OutlierSplit s = fig6_split(seed);
    ASSERT_GT(s.eliminations, 0u);
    ASSERT_GT(s.flagged, 0u);
    ASSERT_GT(s.planted, 0u);
    // A minority of the clients...
    EXPECT_LT(2 * s.flagged, s.clients);
    // ...holds most of the eliminations...
    EXPECT_GT(static_cast<double>(s.flagged_eliminations),
              0.75 * static_cast<double>(s.eliminations));
    // ...and is enriched in planted outliers over the population's share.
    const double precision = static_cast<double>(s.flagged_planted) /
                             static_cast<double>(s.flagged);
    const double base_rate =
        static_cast<double>(s.planted) / static_cast<double>(s.clients);
    EXPECT_GT(precision, 1.5 * base_rate);
  }
}

}  // namespace
}  // namespace cmfl::fl
