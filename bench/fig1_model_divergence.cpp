// Figure 1: CDF of the Normalized Model Divergence d_j (Eq. 7) between
// client-side and global models, for the digits-CNN and NWP-LSTM workloads.
//
// Paper's observation: "more than 50% of parameters in both models produce
// model divergence higher than 100%", with maxima of 268 and 175.  This
// bench trains both workloads federated for a fixed number of rounds,
// snapshots every client's local model, computes d_j per parameter, and
// prints the two CDFs plus the headline statistics.
#include "bench_common.h"

#include "fl/divergence.h"

using namespace cmfl;

namespace {

struct DivergenceReport {
  std::vector<double> d;
  double frac_above_1 = 0.0;  // fraction of parameters with d_j > 100%
  double max = 0.0;
};

DivergenceReport analyze(const fl::SimulationResult& result) {
  DivergenceReport rep;
  rep.d = fl::normalized_model_divergence(result.final_params,
                                          result.client_params);
  std::size_t above = 0;
  for (double v : rep.d) {
    if (v > 1.0) ++above;
    rep.max = std::max(rep.max, v);
  }
  rep.frac_above_1 =
      rep.d.empty() ? 0.0
                    : static_cast<double>(above) /
                          static_cast<double>(rep.d.size());
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Figure 1: Normalized Model Divergence CDF (Eq. 7)\n");

  // --- digits CNN ---
  // Divergence is measured mid-training with a non-decayed learning rate
  // and the paper's heavy local work (multiple epochs over a 1-2 class
  // shard) — the regime where client drift is visible.
  auto cnn_spec = bench::digits_cnn_spec(cfg);
  auto cnn_opt = bench::digits_cnn_options(cfg);
  cnn_opt.local_epochs = cfg.get_int("epochs", 8);
  cnn_opt.learning_rate = core::Schedule::constant(cfg.get_double("lr", 0.15));
  cnn_opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 25));
  cnn_opt.eval_every = cnn_opt.max_iterations;
  cnn_opt.capture_client_params = true;
  const auto cnn_result = bench::run_scheme(
      [&] { return fl::make_digits_cnn_workload(cnn_spec); }, "vanilla",
      core::Schedule::constant(0), cnn_opt);
  const DivergenceReport cnn = analyze(cnn_result);

  // --- NWP LSTM ---
  auto nwp_spec = bench::nwp_lstm_spec(cfg);
  auto nwp_opt = bench::nwp_lstm_options(cfg);
  nwp_opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 25));
  nwp_opt.eval_every = nwp_opt.max_iterations;
  nwp_opt.capture_client_params = true;
  const auto nwp_result = bench::run_scheme(
      [&] { return fl::make_nwp_lstm_workload(nwp_spec); }, "vanilla",
      core::Schedule::constant(0), nwp_opt);
  const DivergenceReport nwp = analyze(nwp_result);

  bench::print_cdf("digits_cnn", stats::Cdf(cnn.d));
  bench::print_cdf("nwp_lstm", stats::Cdf(nwp.d));

  util::Table table({"model", "params analyzed", "median d_j",
                     "frac d_j > 100%", "max d_j"});
  const stats::Cdf cnn_cdf(cnn.d);
  const stats::Cdf nwp_cdf(nwp.d);
  table.add_row({"digits_cnn (MNIST-CNN stand-in)",
                 std::to_string(cnn.d.size()), util::fmt(cnn_cdf.median(), 2),
                 util::fmt(cnn.frac_above_1 * 100, 1) + "%",
                 util::fmt(cnn.max, 1)});
  table.add_row({"nwp_lstm (Shakespeare stand-in)",
                 std::to_string(nwp.d.size()), util::fmt(nwp_cdf.median(), 2),
                 util::fmt(nwp.frac_above_1 * 100, 1) + "%",
                 util::fmt(nwp.max, 1)});
  table.print(std::cout);
  std::printf(
      "\npaper: >50%% of parameters above 100%% divergence in both models; "
      "maxima 268 / 175\n");
  cfg.warn_unused_keys();
  return 0;
}
