// Figure 2: stability of the two filter measures over training iterations
// (digits-CNN workload).
//
//  (a) Gaia's significance ‖u‖/‖x‖ decays exponentially as training
//      converges — a fixed threshold cannot track it.
//  (b) CMFL's relevance e(u, ū) stays within a narrow stable band.
//
// Both measures are recorded on the *same* vanilla training trajectory by
// running the simulation once per measure with the filter in
// observe-only mode (threshold 0 ⇒ nothing is ever excluded, but the
// score trace is recorded).
#include "bench_common.h"

#include <algorithm>

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Figure 2: measure stability over iterations (digits CNN)\n");

  const auto spec = bench::digits_cnn_spec(cfg);
  auto opt = bench::digits_cnn_options(cfg);
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 40));
  opt.eval_every = 0;  // no accuracy evals needed; pure measure traces

  auto make = [&] { return fl::make_digits_cnn_workload(spec); };
  // Threshold 0 never filters: the runs follow the identical vanilla
  // trajectory while recording each measure.
  const auto gaia_run =
      bench::run_scheme(make, "gaia", core::Schedule::constant(0.0), opt);
  const auto cmfl_run =
      bench::run_scheme(make, "cmfl", core::Schedule::constant(0.0), opt);

  std::printf("series,iteration,gaia_significance,cmfl_relevance\n");
  for (std::size_t i = 0; i < gaia_run.history.size(); ++i) {
    std::printf("series,%zu,%.6g,%.4f\n", gaia_run.history[i].iteration,
                gaia_run.history[i].mean_score,
                cmfl_run.history[i].mean_score);
  }

  // Headline statistics: decay factor of Gaia vs relative band of CMFL.
  // Iteration 1 is the cold start (CMFL reports 1.0 by definition), so the
  // stability window starts at iteration 2.
  auto window = [&](const fl::SimulationResult& r) {
    std::vector<double> scores;
    for (const auto& rec : r.history) {
      if (rec.iteration >= 2) scores.push_back(rec.mean_score);
    }
    return scores;
  };
  const auto gaia_scores = window(gaia_run);
  const auto cmfl_scores = window(cmfl_run);
  auto minmax = [](const std::vector<double>& v) {
    return std::pair(*std::min_element(v.begin(), v.end()),
                     *std::max_element(v.begin(), v.end()));
  };
  const auto [gaia_min, gaia_max] = minmax(gaia_scores);
  const auto [cmfl_min, cmfl_max] = minmax(cmfl_scores);

  util::Table table({"measure", "first", "last", "max/min ratio"});
  table.add_row({"gaia ||u||/||x|| (Fig. 2a)",
                 util::fmt(gaia_scores.front(), 4),
                 util::fmt(gaia_scores.back(), 4),
                 util::fmt(gaia_max / std::max(gaia_min, 1e-12), 1)});
  table.add_row({"cmfl relevance (Fig. 2b)", util::fmt(cmfl_scores.front(), 4),
                 util::fmt(cmfl_scores.back(), 4),
                 util::fmt(cmfl_max / std::max(cmfl_min, 1e-12), 2)});
  table.print(std::cout);
  std::printf(
      "\npaper shape: Gaia's measure decays by orders of magnitude (log-"
      "scale axis); CMFL's stays in a narrow band\n");
  cfg.warn_unused_keys();
  return 0;
}
