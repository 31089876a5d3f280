// General experiment driver: run any workload × filter × schedule
// combination from the command line and optionally export the full trace
// as CSV for plotting.
//
//   $ ./run_experiment workload=digits_cnn scheme=cmfl threshold=0.46 \
//         iters=40 out=/tmp/trace.csv
//
// Keys:
//   workload   digits_mlp | digits_cnn | nwp_lstm        (default digits_mlp)
//   scheme     vanilla | gaia | cmfl                     (default cmfl)
//   threshold  filter threshold base                     (default 0.45)
//   schedule   constant | inv_sqrt | inv_pow:<p>         (default constant)
//   clients, iters, epochs, batch, lr, seed, compressor, participation
//   out        CSV path for the per-iteration trace      (optional)
#include <cstdio>

#include "core/filter.h"
#include "fl/simulation.h"
#include "fl/trace_io.h"
#include "fl/workloads.h"
#include "util/config.h"

using namespace cmfl;

namespace {

core::Schedule parse_schedule(const std::string& kind, double base) {
  if (kind == "constant") return core::Schedule::constant(base);
  if (kind == "inv_sqrt") return core::Schedule::inv_sqrt(base);
  const auto colon = kind.find(':');
  if (colon != std::string::npos && kind.substr(0, colon) == "inv_pow") {
    return core::Schedule::inv_pow(base, std::stod(kind.substr(colon + 1)));
  }
  throw std::invalid_argument("unknown schedule '" + kind + "'");
}

fl::Workload build_workload(const std::string& name,
                            const util::Config& cfg) {
  const auto clients =
      static_cast<std::size_t>(cfg.get_int("clients", 30));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  if (name == "digits_mlp") {
    fl::DigitsMlpSpec spec;
    spec.clients = clients;
    spec.train_samples = clients * 30;
    spec.test_samples = 300;
    spec.hidden = {32};
    spec.digits.image_size = 12;
    spec.digits.noise_stddev = 0.25f;
    spec.digits.noise_density = 0.15f;
    spec.seed = seed;
    return fl::make_digits_mlp_workload(spec);
  }
  if (name == "digits_cnn") {
    fl::DigitsCnnSpec spec;
    spec.clients = clients;
    spec.train_samples = clients * 30;
    spec.test_samples = 300;
    spec.cnn.image_size = 12;
    spec.cnn.conv1_filters = 4;
    spec.cnn.conv2_filters = 8;
    spec.cnn.fc_width = 32;
    spec.digits.image_size = 12;
    spec.digits.noise_stddev = 0.25f;
    spec.digits.noise_density = 0.15f;
    spec.seed = seed;
    return fl::make_digits_cnn_workload(spec);
  }
  if (name == "nwp_lstm") {
    fl::NwpLstmSpec spec;
    spec.text.roles = clients;
    spec.text.words_per_role = 90;
    spec.text.seq_len = 6;
    spec.text.topics = 4;
    spec.text.words_per_topic = 8;
    spec.text.function_words = 16;
    spec.text.dominant_topic_weight = 3.0;
    spec.text.outlier_fraction = 0.2;
    spec.lm.embed_dim = 12;
    spec.lm.hidden_dim = 24;
    spec.seed = seed;
    return fl::make_nwp_lstm_workload(spec);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto cfg = util::Config::from_args(argc, argv);
    const std::string workload_name =
        cfg.get_string("workload", "digits_mlp");
    const std::string scheme = cfg.get_string("scheme", "cmfl");

    fl::Workload w = build_workload(workload_name, cfg);
    std::printf("workload: %s\n", w.description.c_str());

    fl::SimulationOptions opt;
    opt.local_epochs = cfg.get_int("epochs", 4);
    opt.batch_size = static_cast<std::size_t>(cfg.get_int("batch", 2));
    opt.learning_rate = core::Schedule::inv_sqrt(cfg.get_double("lr", 0.3));
    opt.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 40));
    opt.eval_every = static_cast<std::size_t>(cfg.get_int("eval_every", 2));
    opt.codec.spec = cfg.get_string("codec", cfg.get_string("compressor", "dense"));
    opt.participation = cfg.get_double("participation", 1.0);

    const core::Schedule threshold = parse_schedule(
        cfg.get_string("schedule", "constant"),
        cfg.get_double("threshold", 0.45));

    fl::FederatedSimulation sim(std::move(w.clients),
                                core::make_filter(scheme, threshold),
                                w.evaluator, opt);
    const fl::SimulationResult r = sim.run();

    std::printf(
        "scheme=%s threshold=%s -> uploads=%zu, uplink=%llu bytes, final "
        "accuracy=%.3f\n",
        scheme.c_str(), threshold.describe().c_str(), r.total_rounds,
        static_cast<unsigned long long>(r.uploaded_bytes),
        r.final_accuracy);

    const std::string out = cfg.get_string("out", "");
    if (!out.empty()) {
      fl::write_trace_csv_file(out, r);
      std::printf("trace written to %s\n", out.c_str());
    }
    cfg.warn_unused_keys();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
