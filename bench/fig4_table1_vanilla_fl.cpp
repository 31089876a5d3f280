// Figure 4 + Table I: learning accuracy vs accumulated communication rounds
// for vanilla FL, Gaia, and CMFL on the digits-CNN and NWP-LSTM workloads,
// and the saving (Φ_vanilla / Φ_A) at two target accuracies per workload.
//
// Following the paper's protocol, each filtered scheme is swept over a set
// of threshold values and the best-performing run is plotted/tabulated
// ("we tested various threshold values ... and chose the threshold values
// with the best performance").
#include "bench_common.h"

using namespace cmfl;

namespace {

struct SchemeResult {
  fl::SimulationResult run;
  std::string chosen;  // description of the winning threshold
};

template <typename MakeWorkload>
SchemeResult best_of(MakeWorkload&& make, const std::string& kind,
                     const std::vector<core::Schedule>& thresholds,
                     const fl::SimulationOptions& opt, double accuracy) {
  auto [best, runs] =
      bench::sweep_thresholds(make, kind, thresholds, opt, accuracy);
  return {std::move(runs[best]), thresholds[best].describe()};
}

void report_workload(const std::string& name, double target_low,
                     double target_high, const fl::SimulationResult& vanilla,
                     const SchemeResult& gaia, const SchemeResult& cmfl) {
  bench::print_curve(name + ",vanilla", vanilla);
  bench::print_curve(name + ",gaia", gaia.run);
  bench::print_curve(name + ",cmfl", cmfl.run);

  util::Table table({"workload", "target acc", "vanilla rounds",
                     "gaia rounds", "gaia saving", "cmfl rounds",
                     "cmfl saving"});
  for (double a : {target_low, target_high}) {
    table.add_row(
        {name, util::fmt(a * 100, 0) + "%",
         bench::opt_rounds(vanilla.rounds_to_accuracy(a)),
         bench::opt_rounds(gaia.run.rounds_to_accuracy(a)),
         bench::opt_saving(fl::saving(vanilla, gaia.run, a)),
         bench::opt_rounds(cmfl.run.rounds_to_accuracy(a)),
         bench::opt_saving(fl::saving(vanilla, cmfl.run, a))});
  }
  table.print(std::cout);
  std::printf("best thresholds: gaia=%s cmfl=%s\n", gaia.chosen.c_str(),
              cmfl.chosen.c_str());
  std::printf("final accuracy: vanilla=%.3f gaia=%.3f cmfl=%.3f\n\n",
              vanilla.final_accuracy, gaia.run.final_accuracy,
              cmfl.run.final_accuracy);
}

std::vector<core::Schedule> parse_sweep(const std::string& kind,
                                        const util::Config& cfg) {
  // Sweep sets mirror the paper's ("a set of 10 relevance threshold values
  // for CMFL ... another set of 10 significance threshold values for
  // Gaia"), trimmed to the values that matter at this scale; `full_sweep=1`
  // restores fuller sets.  CMFL additionally sweeps the paper's decaying
  // schedule v_t = v0/sqrt(t).  Gaia is swept over *constant* thresholds
  // only — a fixed significance threshold is Gaia's published design, and
  // the paper's §III-B critique (the magnitude measure decays while the
  // threshold cannot track it) is precisely about that fixedness.
  const bool full = cfg.get_bool("full_sweep", false);
  std::vector<double> values;
  std::vector<core::Schedule> sweep;
  if (kind == "cmfl") {
    values = full ? std::vector<double>{0.1, 0.2, 0.3, 0.40, 0.44, 0.46,
                                        0.48, 0.50, 0.7, 0.9}
                  : std::vector<double>{0.40, 0.44, 0.48};
    for (double v : values) sweep.push_back(core::Schedule::constant(v));
    sweep.push_back(core::Schedule::inv_sqrt(0.8));
    if (full) sweep.push_back(core::Schedule::inv_sqrt(0.9));
  } else {
    values = full ? std::vector<double>{0.02, 0.05, 0.1, 0.15, 0.2, 0.25,
                                        0.3, 0.5, 0.7, 0.9}
                  : std::vector<double>{0.02, 0.1, 0.25};
    for (double v : values) sweep.push_back(core::Schedule::constant(v));
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Figure 4 + Table I: vanilla FL vs Gaia vs CMFL\n\n");

  // --- Figure 4a: digits CNN ---
  {
    const double lo = cfg.get_double("cnn_target_low", 0.6);
    const double hi = cfg.get_double("cnn_target_high", 0.75);
    const auto spec = bench::digits_cnn_spec(cfg);
    const auto opt = bench::digits_cnn_options(cfg);
    auto make = [&] { return fl::make_digits_cnn_workload(spec); };
    std::printf("## digits CNN (%zu clients, E=%d, B=%zu)\n", spec.clients,
                opt.local_epochs, opt.batch_size);
    const auto vanilla =
        bench::run_scheme(make, "vanilla", core::Schedule::constant(0), opt);
    const auto gaia = best_of(make, "gaia", parse_sweep("gaia", cfg), opt, hi);
    const auto cmfl = best_of(make, "cmfl", parse_sweep("cmfl", cfg), opt, hi);
    report_workload("digits_cnn", lo, hi, vanilla, gaia, cmfl);
  }

  // --- Figure 4b: NWP LSTM ---
  {
    const double lo = cfg.get_double("nwp_target_low", 0.15);
    const double hi = cfg.get_double("nwp_target_high", 0.22);
    const auto spec = bench::nwp_lstm_spec(cfg);
    auto opt = bench::nwp_lstm_options(cfg);
    // All schemes plateau by ~iteration 14 on this workload (same cutoff as
    // the fig7 cluster runs); running far past the plateau only accumulates
    // rounds without accuracy change.
    opt.max_iterations =
        static_cast<std::size_t>(cfg.get_int("nwp_iters", 18));
    opt.eval_every = 1;
    auto make = [&] { return fl::make_nwp_lstm_workload(spec); };
    std::printf("## NWP LSTM (%zu roles, E=%d, B=%zu)\n", spec.text.roles,
                opt.local_epochs, opt.batch_size);
    const auto vanilla =
        bench::run_scheme(make, "vanilla", core::Schedule::constant(0), opt);
    const auto gaia = best_of(make, "gaia", parse_sweep("gaia", cfg), opt, hi);
    // NWP relevance concentrates in a higher, tighter band than the CNN's
    // and drifts down slowly; sweep that band plus slow-decay schedules
    // that track the drift.
    std::vector<core::Schedule> cmfl_sweep = {
        core::Schedule::constant(0.49), core::Schedule::constant(0.51),
        core::Schedule::inv_pow(0.54, 0.02),
        core::Schedule::inv_pow(0.55, 0.02)};
    const auto cmfl = best_of(make, "cmfl", cmfl_sweep, opt, hi);
    report_workload("nwp_lstm", lo, hi, vanilla, gaia, cmfl);
  }

  std::printf(
      "paper shape: saving(CMFL) >> saving(Gaia) ~= 1 at every target "
      "accuracy (paper: 3.45x/3.47x vs 1.25x/1.13x on MNIST CNN; "
      "13.35x/13.97x vs 1.42x/1.26x on NWP LSTM)\n");
  cfg.warn_unused_keys();
  return 0;
}
