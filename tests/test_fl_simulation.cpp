// End-to-end federated training on a small MLP workload: convergence,
// communication accounting, filter behaviour, determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/filter.h"
#include "fl/convex_testbed.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "fl/workloads.h"

namespace cmfl::fl {
namespace {

DigitsMlpSpec small_spec() {
  DigitsMlpSpec spec;
  spec.clients = 10;
  spec.train_samples = 300;
  spec.test_samples = 120;
  spec.hidden = {24};
  spec.digits.image_size = 8;
  spec.digits.samples = 0;  // overwritten by the workload builder
  spec.seed = 42;
  return spec;
}

SimulationOptions fast_options() {
  SimulationOptions opt;
  opt.local_epochs = 2;
  opt.batch_size = 5;
  opt.learning_rate = core::Schedule::constant(0.15);
  opt.max_iterations = 60;
  opt.eval_every = 5;
  return opt;
}

SimulationResult run_with_filter(std::unique_ptr<core::UpdateFilter> filter,
                                 SimulationOptions opt,
                                 DigitsMlpSpec spec = small_spec()) {
  Workload w = make_digits_mlp_workload(spec);
  FederatedSimulation sim(std::move(w.clients), std::move(filter),
                          w.evaluator, opt);
  return sim.run();
}

TEST(FederatedSimulation, VanillaConverges) {
  const SimulationResult r =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(),
                      fast_options());
  EXPECT_GT(r.final_accuracy, 0.5);  // 10-class task, chance is 0.1
  // Vanilla uploads every client every iteration.
  EXPECT_EQ(r.total_rounds, 10u * r.history.size());
  for (const auto& rec : r.history) EXPECT_EQ(rec.uploads, 10u);
}

TEST(FederatedSimulation, CumulativeRoundsMonotone) {
  const SimulationResult r =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(),
                      fast_options());
  std::size_t prev = 0;
  for (const auto& rec : r.history) {
    EXPECT_GE(rec.cumulative_rounds, prev);
    EXPECT_EQ(rec.cumulative_rounds, prev + rec.uploads);
    prev = rec.cumulative_rounds;
  }
}

TEST(FederatedSimulation, CmflUploadsFewerRounds) {
  auto opt = fast_options();
  const SimulationResult vanilla =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(), opt);
  // Threshold slightly below the relevance median keeps roughly the aligned
  // half of clients uploading each round.
  const SimulationResult cmfl = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      opt);
  EXPECT_LT(cmfl.total_rounds, vanilla.total_rounds);
  // Filtering must not destroy learning on this easy task.
  EXPECT_GT(cmfl.final_accuracy, 0.4);
}

TEST(FederatedSimulation, CmflEliminationsAreRecorded) {
  const SimulationResult cmfl = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.6)),
      fast_options());
  std::size_t eliminated = 0;
  for (std::size_t e : cmfl.eliminations_per_client) eliminated += e;
  EXPECT_GT(eliminated, 0u);
  // uploads + eliminations == clients * iterations
  EXPECT_EQ(cmfl.total_rounds + eliminated, 10u * cmfl.history.size());
}

TEST(FederatedSimulation, DeterministicAcrossRuns) {
  auto opt = fast_options();
  opt.max_iterations = 10;
  const SimulationResult a = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.4)), opt);
  const SimulationResult b = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.4)), opt);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].uploads, b.history[i].uploads);
    EXPECT_DOUBLE_EQ(a.history[i].mean_score, b.history[i].mean_score);
  }
  EXPECT_EQ(a.final_params, b.final_params);
}

TEST(FederatedSimulation, SerialAndParallelAgree) {
  auto opt = fast_options();
  opt.max_iterations = 8;
  opt.parallel = false;
  const SimulationResult serial = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.4)), opt);
  opt.parallel = true;
  const SimulationResult parallel = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.4)), opt);
  EXPECT_EQ(serial.final_params, parallel.final_params);
  EXPECT_EQ(serial.total_rounds, parallel.total_rounds);
}

TEST(FederatedSimulation, TargetAccuracyStopsEarly) {
  auto opt = fast_options();
  opt.max_iterations = 200;
  opt.target_accuracy = 0.3;  // easy target
  const SimulationResult r =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(), opt);
  EXPECT_LT(r.history.size(), 200u);
  EXPECT_GE(r.final_accuracy, 0.3);
}

TEST(FederatedSimulation, MinUploadsRescuesStarvedRound) {
  auto opt = fast_options();
  opt.max_iterations = 6;
  opt.min_uploads = 2;
  // Threshold 1.0 rejects everything after the cold-start round, forcing
  // the min_uploads path.
  const SimulationResult r = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(1.01)),
      opt);
  for (const auto& rec : r.history) {
    if (rec.iteration > 1) {
      EXPECT_EQ(rec.uploads, 2u);
    }
  }
}

TEST(IterationRecord, EvaluatedChecksBothMetrics) {
  IterationRecord rec;
  EXPECT_FALSE(rec.evaluated());  // both NaN: never evaluated
  rec.loss = 1.5;                 // diverged eval: NaN accuracy, finite loss
  EXPECT_TRUE(rec.evaluated());
  rec.loss = std::numeric_limits<double>::quiet_NaN();
  rec.accuracy = 0.5;             // the converse corner
  EXPECT_TRUE(rec.evaluated());
}

TEST(FederatedSimulation, NonFiniteLossNeverTriggersEarlyStop) {
  // An evaluator that reports a flattering accuracy alongside a NaN loss
  // models a numerically diverged model scoring well by luck on a tiny test
  // set.  target_accuracy must ignore such rounds and run to completion.
  auto opt = fast_options();
  opt.max_iterations = 8;
  opt.eval_every = 2;
  opt.target_accuracy = 0.5;
  Workload w = make_digits_mlp_workload(small_spec());
  GlobalEvaluator lying_evaluator = [](std::span<const float>) {
    nn::EvalResult r;
    r.accuracy = 1.0;
    r.loss = std::numeric_limits<double>::quiet_NaN();
    return r;
  };
  FederatedSimulation sim(std::move(w.clients),
                          std::make_unique<core::AcceptAllFilter>(),
                          lying_evaluator, opt);
  const SimulationResult r = sim.run();
  EXPECT_EQ(r.history.size(), 8u);  // no early stop despite accuracy = 1.0
}

TEST(FederatedSimulation, MinUploadsComposesWithSampleWeighting) {
  // S3 regression: the min_uploads rescue path must hand the sample-weighted
  // aggregator a weight per forced upload, not a stale weight vector.
  auto opt = fast_options();
  opt.max_iterations = 6;
  opt.min_uploads = 2;
  opt.aggregation = Aggregation::kSampleWeighted;
  // Threshold > 1 rejects every natural upload after the cold-start round.
  const SimulationResult r = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(1.01)),
      opt);
  ASSERT_EQ(r.history.size(), 6u);
  std::size_t expected_rounds = 0;
  for (const auto& rec : r.history) {
    if (rec.iteration > 1) EXPECT_EQ(rec.uploads, 2u);
    expected_rounds += rec.uploads;
    for (float p : r.final_params) ASSERT_TRUE(std::isfinite(p));
  }
  EXPECT_EQ(r.total_rounds, expected_rounds);
}

TEST(FederatedSimulation, ConstructorValidation) {
  Workload w = make_digits_mlp_workload(small_spec());
  SimulationOptions opt = fast_options();
  EXPECT_THROW(FederatedSimulation({}, std::make_unique<core::AcceptAllFilter>(),
                                   w.evaluator, opt),
               std::invalid_argument);
  Workload w2 = make_digits_mlp_workload(small_spec());
  EXPECT_THROW(
      FederatedSimulation(std::move(w2.clients), nullptr, w2.evaluator, opt),
      std::invalid_argument);
  // A participation fraction outside (0, 1] fails at construction, before
  // any buffer or thread pool exists — not on the first run().
  for (const double participation : {0.0, 1.5}) {
    SCOPED_TRACE("participation " + std::to_string(participation));
    Workload wp = make_digits_mlp_workload(small_spec());
    SimulationOptions bad = opt;
    bad.participation = participation;
    EXPECT_THROW(FederatedSimulation(std::move(wp.clients),
                                     std::make_unique<core::AcceptAllFilter>(),
                                     wp.evaluator, bad),
                 std::invalid_argument);
  }
}

TEST(Metrics, SavingAndRows) {
  auto opt = fast_options();
  const SimulationResult vanilla =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(), opt);
  const SimulationResult cmfl = run_with_filter(
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.5)), opt);
  const double a = 0.3;
  const auto s = saving(vanilla, cmfl, a);
  if (vanilla.rounds_to_accuracy(a) && cmfl.rounds_to_accuracy(a)) {
    ASSERT_TRUE(s.has_value());
    EXPECT_GT(*s, 0.0);
  }
  const SavingRow row = make_saving_row("digits_mlp", a, vanilla, cmfl);
  EXPECT_EQ(row.workload, "digits_mlp");
  // Unreachable accuracy yields nullopt everywhere.
  EXPECT_FALSE(saving(vanilla, cmfl, 1.01).has_value());
}

TEST(Metrics, AccuracyCurveOnlyEvaluatedPoints) {
  const SimulationResult r =
      run_with_filter(std::make_unique<core::AcceptAllFilter>(),
                      fast_options());
  const auto curve = accuracy_curve(r);
  std::size_t evaluated = 0;
  for (const auto& rec : r.history) evaluated += rec.evaluated();
  EXPECT_EQ(curve.size(), evaluated);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].rounds, curve[i - 1].rounds);
  }
}

TEST(Metrics, BestRunIndexPicksCheapest) {
  SimulationResult a, b;
  IterationRecord ra;
  ra.iteration = 1;
  ra.cumulative_rounds = 100;
  ra.accuracy = 0.9;
  a.history.push_back(ra);
  a.final_accuracy = 0.9;
  IterationRecord rb = ra;
  rb.cumulative_rounds = 50;
  b.history.push_back(rb);
  b.final_accuracy = 0.9;
  EXPECT_EQ(best_run_index({a, b}, 0.8), 1u);
  // Nobody reaches 0.95: falls back to highest final accuracy.
  b.final_accuracy = 0.91;
  EXPECT_EQ(best_run_index({a, b}, 0.95), 1u);
  // Sustained gating: a run that touched the target but collapsed by the
  // end does not qualify; the slower-but-stable run wins.
  SimulationResult collapsed = b;
  collapsed.history[0].cumulative_rounds = 10;  // cheapest touch
  collapsed.final_accuracy = 0.2;
  EXPECT_EQ(best_run_index({a, collapsed}, 0.8), 0u);
  EXPECT_EQ(best_run_index({a, collapsed}, 0.8, /*require_sustained=*/false),
            1u);
  EXPECT_THROW(best_run_index({}, 0.5), std::invalid_argument);
}

TEST(FederatedSimulation, NonSampledClientsDoNoLocalWork) {
  // Regression test for the lazy-participation contract: with a per-round
  // cohort, a client the sampler never picked must run zero optimization
  // steps (no eager training it throws away).  ConvexClient counts its
  // gradient steps in lifetime_steps(), so the expected total per client is
  // exactly (participated rounds) × epochs × local_steps.
  ConvexTestbedSpec spec;
  spec.clients = 8;
  spec.dim = 6;
  spec.local_steps = 3;
  spec.seed = 77;
  ConvexWorkload w = make_convex_workload(spec);

  std::vector<const FlClient*> observers;
  observers.reserve(w.clients.size());
  for (const auto& c : w.clients) observers.push_back(c.get());

  SimulationOptions opt;
  opt.local_epochs = 2;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.05);
  opt.max_iterations = 5;
  opt.eval_every = 5;
  opt.schedule.sample_size = 3;  // 3-of-8 cohort per round
  FederatedSimulation sim(std::move(w.clients),
                          std::make_unique<core::AcceptAllFilter>(),
                          w.evaluator, opt);
  const SimulationResult r = sim.run();

  const std::uint64_t steps_per_participation =
      static_cast<std::uint64_t>(opt.local_epochs) *
      static_cast<std::uint64_t>(spec.local_steps);
  ASSERT_EQ(r.uploads_per_client.size(), observers.size());
  std::uint64_t participant_total = 0;
  for (std::size_t i = 0; i < observers.size(); ++i) {
    const std::uint64_t participations =
        r.uploads_per_client[i] + r.eliminations_per_client[i];
    EXPECT_EQ(observers[i]->lifetime_steps(),
              participations * steps_per_participation)
        << "client " << i;
    participant_total += participations;
  }
  // 3 sampled clients per round, every one either uploads or is eliminated.
  EXPECT_EQ(participant_total, 3u * opt.max_iterations);
}

TEST(FederatedSimulation, ScheduleOptionsKeepTheirMeaning) {
  // A cohort of at least every client is full participation, bit for bit;
  // over-selection and buffered-async rounds need a sched::RoundEngine.
  ConvexTestbedSpec spec;
  spec.clients = 5;
  spec.dim = 6;
  spec.seed = 9;
  SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.05);
  opt.max_iterations = 4;
  opt.eval_every = 2;
  const auto make = [&](const SimulationOptions& o) {
    ConvexWorkload w = make_convex_workload(spec);
    return FederatedSimulation(std::move(w.clients),
                               std::make_unique<core::AcceptAllFilter>(),
                               w.evaluator, o);
  };
  const SimulationResult full = make(opt).run();
  for (const std::size_t cohort : {5u, 9u}) {
    SCOPED_TRACE("sample_size " + std::to_string(cohort));
    SimulationOptions o = opt;
    o.schedule.sample_size = cohort;
    const SimulationResult r = make(o).run();
    EXPECT_EQ(r.final_params, full.final_params);
    EXPECT_EQ(r.total_rounds, full.total_rounds);
  }
  for (const sched::RoundMode mode :
       {sched::RoundMode::kOverSelect, sched::RoundMode::kBufferedAsync}) {
    SimulationOptions o = opt;
    o.schedule.mode = mode;
    o.schedule.sample_size = 3;
    o.schedule.async_buffer = 2;
    EXPECT_THROW(make(o), std::invalid_argument);
  }
}

}  // namespace
}  // namespace cmfl::fl
