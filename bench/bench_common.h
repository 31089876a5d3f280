// Shared configuration for the bench harnesses.
//
// Each bench regenerates one table/figure of the paper (DESIGN.md §3).  The
// default scales are tuned so the full suite runs in minutes on a laptop;
// every knob can be overridden on the command line as key=value (see
// util::Config), e.g.  ./fig4_table1_vanilla_fl clients=100 iters=120
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "fl/workloads.h"
#include "stats/cdf.h"
#include "util/config.h"
#include "util/table.h"

namespace cmfl::bench {

/// The scaled-down "MNIST CNN" workload (paper §V-A (1)).
inline fl::DigitsCnnSpec digits_cnn_spec(const util::Config& cfg) {
  fl::DigitsCnnSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 60));
  spec.train_samples =
      static_cast<std::size_t>(cfg.get_int("train_samples", 1800));
  spec.test_samples =
      static_cast<std::size_t>(cfg.get_int("test_samples", 400));
  spec.cnn.image_size = 12;
  spec.cnn.conv1_filters = 4;
  spec.cnn.conv2_filters = 8;
  spec.cnn.fc_width = 32;
  spec.digits.image_size = 12;
  spec.digits.noise_stddev = 0.25f;
  spec.digits.noise_density = 0.15f;
  spec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  return spec;
}

inline fl::SimulationOptions digits_cnn_options(const util::Config& cfg) {
  fl::SimulationOptions opt;
  opt.local_epochs = cfg.get_int("epochs", 4);          // E = 4 (paper)
  opt.batch_size = static_cast<std::size_t>(cfg.get_int("batch", 2));  // B = 2
  opt.learning_rate =
      core::Schedule::inv_sqrt(cfg.get_double("lr", 0.15));
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 50));
  opt.eval_every = static_cast<std::size_t>(cfg.get_int("eval_every", 1));
  return opt;
}

/// The scaled-down next-word-prediction workload (paper §V-A (2)).
inline fl::NwpLstmSpec nwp_lstm_spec(const util::Config& cfg,
                                     const char* role_key = "roles") {
  fl::NwpLstmSpec spec;
  spec.text.roles = static_cast<std::size_t>(cfg.get_int(role_key, 30));
  spec.text.words_per_role =
      static_cast<std::size_t>(cfg.get_int("words_per_role", 90));
  spec.text.seq_len = 6;
  spec.text.topics = 4;
  spec.text.words_per_topic = 8;
  spec.text.function_words = 16;
  spec.text.dominant_topic_weight = 3.0;
  spec.text.outlier_fraction = cfg.get_double("nwp_outliers", 0.2);
  spec.lm.embed_dim = 12;
  spec.lm.hidden_dim = 24;
  spec.lm.layers = 1;
  spec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  return spec;
}

inline fl::SimulationOptions nwp_lstm_options(const util::Config& cfg) {
  fl::SimulationOptions opt;
  opt.local_epochs = cfg.get_int("epochs", 2);
  opt.batch_size = static_cast<std::size_t>(cfg.get_int("batch", 2));
  opt.learning_rate = core::Schedule::constant(cfg.get_double("lr", 0.8));
  opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 50));
  opt.eval_every = static_cast<std::size_t>(cfg.get_int("eval_every", 2));
  return opt;
}

/// Runs one simulation with a freshly built workload.
template <typename MakeWorkload>
fl::SimulationResult run_scheme(MakeWorkload&& make, const std::string& kind,
                                core::Schedule threshold,
                                fl::SimulationOptions opt) {
  fl::Workload w = make();
  fl::FederatedSimulation sim(std::move(w.clients),
                              core::make_filter(kind, threshold),
                              w.evaluator, opt);
  return sim.run();
}

/// The paper's protocol: test a set of thresholds, keep the best run for
/// plotting (best = fewest rounds to `accuracy`, fallback highest final
/// accuracy).  Returns {best index, all results}.
template <typename MakeWorkload>
std::pair<std::size_t, std::vector<fl::SimulationResult>> sweep_thresholds(
    MakeWorkload&& make, const std::string& kind,
    const std::vector<core::Schedule>& thresholds, fl::SimulationOptions opt,
    double accuracy) {
  std::vector<fl::SimulationResult> runs;
  runs.reserve(thresholds.size());
  for (const auto& v : thresholds) {
    runs.push_back(run_scheme(make, kind, v, opt));
  }
  return {fl::best_run_index(runs, accuracy), std::move(runs)};
}

/// Prints an accuracy-vs-cumulative-rounds series as CSV rows.
inline void print_curve(const std::string& scheme,
                        const fl::SimulationResult& r) {
  for (const auto& p : fl::accuracy_curve(r)) {
    std::printf("curve,%s,%zu,%.4f\n", scheme.c_str(), p.rounds, p.accuracy);
  }
}

/// Prints a CDF as CSV rows `cdf,<label>,<x>,<fraction>`.
inline void print_cdf(const std::string& label, const stats::Cdf& cdf,
                      std::size_t points = 40) {
  for (const auto& p : cdf.plot_series(points)) {
    std::printf("cdf,%s,%.6g,%.4f\n", label.c_str(), p.x, p.fraction);
  }
}

inline std::string opt_rounds(const std::optional<std::size_t>& v) {
  return v ? util::fmt_count(static_cast<long long>(*v)) : "not reached";
}

inline std::string opt_saving(const std::optional<double>& v) {
  return v ? util::fmt(*v, 2) + "x" : "-";
}

}  // namespace cmfl::bench
