// Theorem 1 validation: on an exactly-solvable convex federated problem,
// run through fl::FederatedSimulation, the time-averaged regret
// (1/T)·Σ|f(x̃_t) − f(x*)| must vanish under the decaying schedules
// η_t = η0/√t, v_t = v0/√t — with CMFL filtering active — and must NOT blow
// up relative to vanilla FL.
//
// Also sweeps the schedule family (remark 2 of the theorem: "a diverse
// choices of η_t and v_t can guarantee convergence, though the convergence
// speed can be different").
#include "bench_common.h"

#include "fl/convex_testbed.h"

using namespace cmfl;

int main(int argc, char** argv) {
  const auto cfg = util::Config::from_args(argc, argv);
  std::printf("# Theorem 1: convergence of Algorithm 1 on a convex testbed\n\n");

  fl::ConvexTestbedSpec spec;
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 50));
  spec.dim = static_cast<std::size_t>(cfg.get_int("dim", 64));
  spec.seed = static_cast<std::uint64_t>(cfg.get_int64("seed", 42));
  const auto iters = static_cast<std::size_t>(cfg.get_int("iters", 2000));
  fl::SimulationOptions opt;
  opt.local_epochs = 1;  // one ConvexClient epoch is spec.local_steps steps
  opt.learning_rate = core::Schedule::inv_sqrt(cfg.get_double("lr", 0.2));
  opt.max_iterations = iters;
  opt.eval_every = 1;  // the regret needs f(x_t) every round

  struct Row {
    std::string name;
    std::unique_ptr<core::UpdateFilter> filter;
  };
  std::vector<Row> rows;
  rows.push_back({"vanilla", std::make_unique<core::AcceptAllFilter>()});
  rows.push_back({"cmfl v=0.5/sqrt(t) (paper)",
                  std::make_unique<core::CmflFilter>(
                      core::Schedule::inv_sqrt(0.5))});
  rows.push_back({"cmfl v=0.9/sqrt(t)",
                  std::make_unique<core::CmflFilter>(
                      core::Schedule::inv_sqrt(0.9))});
  rows.push_back({"cmfl v=0.5/t",
                  std::make_unique<core::CmflFilter>(
                      core::Schedule::inv_linear(0.5))});
  rows.push_back({"cmfl v=0.55/t^0.1",
                  std::make_unique<core::CmflFilter>(
                      core::Schedule::inv_pow(0.55, 0.1))});

  util::Table table({"scheme", "rounds", "avg regret T/4", "avg regret T",
                     "decayed", "final |f - f*|"});
  for (auto& row : rows) {
    fl::ConvexWorkload w = fl::make_convex_workload(spec);
    const double f_star = w.testbed->optimum_loss();
    fl::FederatedSimulation sim(std::move(w.clients), std::move(row.filter),
                                w.evaluator, opt);
    const fl::SimulationResult r = sim.run();
    // regret_t = |f(x_t) − f(x*)|, from the evaluator's exact loss; its
    // running mean (1/T)·Σ_{t≤T} regret_t is what Theorem 1 bounds.
    std::vector<double> averaged;
    double sum = 0.0;
    for (const fl::IterationRecord& rec : r.history) {
      sum += std::fabs(rec.loss - f_star);
      averaged.push_back(sum / static_cast<double>(rec.iteration));
    }
    const double early = averaged[iters / 4 - 1];
    const double late = averaged.back();
    table.add_row({row.name,
                   util::fmt_count(static_cast<long long>(r.total_rounds)),
                   util::fmt(early, 4), util::fmt(late, 4),
                   late < early ? "yes" : "NO",
                   util::fmt(std::fabs(r.history.back().loss - f_star), 4)});
    std::printf("series,%s", row.name.c_str());
    for (std::size_t t = 9; t < iters; t += iters / 20) {
      std::printf(",%.5f", averaged[t]);
    }
    std::printf("\n");
  }
  table.print(std::cout);
  std::printf(
      "\nexpected: every scheme's time-averaged regret decreases with T "
      "(Theorem 1), CMFL's rounds are fewer than vanilla's, and the final "
      "loss gaps are comparable\n");
  cfg.warn_unused_keys();
  return 0;
}
