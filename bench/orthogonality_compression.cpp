// Orthogonality study (paper §I): CMFL reduces the *number* of uploads,
// compression reduces the *bits per* upload — the two compose.
//
// Grid: {vanilla, cmfl} × {dense, sign, quant:8, topk:0.05, subsample:0.25,
// structured:0.25} on the digits MLP workload, reporting the exact uplink
// bytes to reach a target accuracy.  Expected shape: combining CMFL with
// any codec beats either alone on bytes-to-accuracy.
#include "bench_common.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Orthogonality: CMFL x update compression (digits MLP)\n\n");
  const double target = cfg.get_double("target", 0.7);

  fl::DigitsMlpSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 30));
  spec.train_samples = spec.clients * 30;
  spec.test_samples = 300;
  spec.hidden = {32};
  spec.digits.image_size = 12;
  spec.digits.noise_stddev = 0.25f;
  spec.digits.noise_density = 0.15f;
  spec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  auto make = [&] { return fl::make_digits_mlp_workload(spec); };

  fl::SimulationOptions base;
  base.local_epochs = 4;
  base.batch_size = 2;
  base.learning_rate = core::Schedule::inv_sqrt(cfg.get_double("lr", 0.3));
  base.max_iterations = static_cast<std::size_t>(cfg.get_int("iters", 50));
  base.eval_every = 1;

  struct Cell {
    const char* scheme;
    const char* codec;
  };
  const std::vector<Cell> grid = {
      {"vanilla", "dense"},          {"vanilla", "sign"},
      {"vanilla", "quant:8"},        {"vanilla", "topk:0.05"},
      {"vanilla", "subsample:0.25"}, {"vanilla", "structured:0.25"},
      {"cmfl", "dense"},             {"cmfl", "sign"},
      {"cmfl", "quant:8"},           {"cmfl", "topk:0.05"},
      {"cmfl", "subsample:0.25"},    {"cmfl", "structured:0.25"},
  };

  util::Table table({"scheme", "codec", "uploads", "uplink bytes",
                     "rounds to target", "final acc"});
  std::uint64_t baseline_bytes = 0;
  for (const auto& cell : grid) {
    auto opt = base;
    opt.codec.spec = cell.codec;
    const core::Schedule threshold =
        std::string(cell.scheme) == "cmfl"
            ? core::Schedule::constant(cfg.get_double("threshold", 0.42))
            : core::Schedule::constant(0.0);
    const auto r = bench::run_scheme(make, cell.scheme, threshold, opt);
    if (std::string(cell.scheme) == "vanilla" &&
        std::string(cell.codec) == "dense") {
      baseline_bytes = r.uploaded_bytes;
    }
    table.add_row({cell.scheme, cell.codec,
                   util::fmt_count(static_cast<long long>(r.total_rounds)),
                   util::fmt_count(static_cast<long long>(r.uploaded_bytes)),
                   bench::opt_rounds(r.rounds_to_accuracy(target)),
                   util::fmt(r.final_accuracy, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nbaseline (vanilla, dense) uplink: %s bytes; CMFL cuts uploads, "
      "codecs cut bytes per upload, and the savings multiply.\n",
      util::fmt_count(static_cast<long long>(baseline_bytes)).c_str());
  cfg.warn_unused_keys();
  return 0;
}
