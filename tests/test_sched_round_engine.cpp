// sched::RoundEngine: sync parity with FederatedSimulation, over-selection
// round semantics, buffered-async aggregation, and the kill-and-resume
// bit-identity invariant in both production round modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/adversary.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "fl/simulation.h"
#include "sched/population.h"
#include "sched/round_engine.h"

namespace cmfl::sched {
namespace {

fl::ConvexTestbedSpec testbed_spec(std::size_t clients) {
  fl::ConvexTestbedSpec spec;
  spec.clients = clients;
  spec.dim = 8;
  spec.local_steps = 3;
  spec.gradient_noise = 0.1;
  spec.seed = 23;
  return spec;
}

/// Deterministic factory producing exactly the clients
/// make_convex_workload builds (same centers, same RNG streams), so the
/// engine and the simulation train identical devices.
ClientFactory factory_for(const fl::ConvexTestbedSpec& spec,
                          std::shared_ptr<fl::ConvexTestbed> testbed) {
  return [spec, testbed](std::uint64_t k) {
    return std::make_unique<fl::ConvexClient>(
        testbed->centers()[k], spec.local_steps, spec.gradient_noise,
        util::Rng(spec.seed ^ 0xFEEDFACEULL).split(k),
        static_cast<float>(spec.start_offset));
  };
}

fl::GlobalEvaluator evaluator_for(std::shared_ptr<fl::ConvexTestbed> testbed) {
  return [testbed](std::span<const float> x) {
    nn::EvalResult eval;
    eval.loss = testbed->global_loss(x);
    eval.accuracy =
        1.0 / (1.0 + std::fabs(eval.loss - testbed->optimum_loss()));
    eval.samples = testbed->centers().size();
    return eval;
  };
}

fl::SimulationOptions base_options() {
  fl::SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.1);
  opt.max_iterations = 8;
  opt.eval_every = 2;
  opt.seed = 1234;
  return opt;
}

void expect_sim_bit_identical(const fl::SimulationResult& a,
                              const fl::SimulationResult& b) {
  EXPECT_EQ(a.final_params, b.final_params);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_TRUE(fl::bitwise_equal(a.history[i], b.history[i]))
        << "iteration record " << i;
  }
  EXPECT_EQ(a.eliminations_per_client, b.eliminations_per_client);
  EXPECT_EQ(a.uploads_per_client, b.uploads_per_client);
  EXPECT_EQ(a.uploaded_bytes, b.uploaded_bytes);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.validation, b.validation);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(RoundEngine, SyncFullParticipationMatchesSimulation) {
  const auto spec = testbed_spec(10);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
  const auto opt = base_options();

  // Reference: the existing trainer over an eager client vector.
  fl::ConvexWorkload w = fl::make_convex_workload(spec);
  fl::FederatedSimulation sim(
      std::move(w.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w.evaluator, opt);
  const fl::SimulationResult reference = sim.run();

  // Engine: the same devices behind a lazily materializing population.
  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  pop_spec.max_resident = 4;  // force evictions mid-run
  Population population(pop_spec, factory_for(spec, testbed));
  RoundEngine engine(
      population,
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      evaluator_for(testbed), opt);
  const EngineResult result = engine.run();

  expect_sim_bit_identical(result.sim, reference);
  EXPECT_EQ(result.sched.invited, 10u * opt.max_iterations);
  EXPECT_EQ(result.sched.reported, result.sched.invited);
  EXPECT_EQ(result.sched.discarded_stragglers, 0u);
  // The warm pool stayed bounded even though every device participated.
  EXPECT_LE(result.sched.peak_resident_clients,
            pop_spec.max_resident + 10u);
}

TEST(RoundEngine, OverSelectionKeepsFirstKAndCountsStragglers) {
  const auto spec = testbed_spec(40);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);

  auto opt = base_options();
  opt.max_iterations = 6;
  opt.schedule.mode = RoundMode::kOverSelect;
  opt.schedule.selection = Selection::kAvailabilityAware;
  opt.schedule.sample_size = 12;
  opt.schedule.target_reports = 8;

  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  pop_spec.mean_on_fraction = 0.8;
  pop_spec.dropout_mid_round = 0.05;
  pop_spec.max_resident = 12;
  pop_spec.seed = 5;
  Population population(pop_spec, factory_for(spec, testbed));
  RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                     evaluator_for(testbed), opt);
  const EngineResult r = engine.run();

  ASSERT_EQ(r.sim.history.size(), 6u);
  EXPECT_EQ(r.sched.invited, 12u * 6u);
  for (const auto& rec : r.sim.history) {
    // First-K commit: never more than K counted reports per round.
    EXPECT_LE(rec.participants, 8u);
    EXPECT_LE(rec.uploads, rec.participants);
  }
  // 12 invited for 8 kept: stragglers must exist (minus dropouts/offline).
  EXPECT_GT(r.sched.discarded_stragglers, 0u);
  EXPECT_EQ(r.sched.reported + r.sched.unavailable_invited +
                r.sched.mid_round_dropouts + r.sched.discarded_stragglers,
            r.sched.invited);
  EXPECT_GT(r.sim.uploaded_bytes, 0u);
}

TEST(RoundEngine, BufferedAsyncAggregatesWithStaleness) {
  const auto spec = testbed_spec(60);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);

  auto opt = base_options();
  opt.max_iterations = 12;  // aggregations, not rounds
  opt.eval_every = 4;
  opt.schedule.mode = RoundMode::kBufferedAsync;
  opt.schedule.selection = Selection::kAvailabilityAware;
  opt.schedule.sample_size = 16;
  opt.schedule.async_buffer = 6;
  opt.schedule.staleness_exponent = 0.5;

  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  pop_spec.mean_on_fraction = 0.9;
  pop_spec.latency_log_sigma = 0.6;  // heavy-tailed latency -> staleness
  pop_spec.max_resident = 16;
  pop_spec.seed = 6;
  Population population(pop_spec, factory_for(spec, testbed));
  RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                     evaluator_for(testbed), opt);
  const EngineResult r = engine.run();

  ASSERT_EQ(r.sim.history.size(), 12u);
  bool any_stale = false;
  for (std::size_t i = 0; i < r.sim.history.size(); ++i) {
    const auto& rec = r.sim.history[i];
    EXPECT_EQ(rec.iteration, i + 1);
    EXPECT_GE(rec.uploads, opt.schedule.async_buffer);
    any_stale = any_stale || rec.staleness_max > 0;
  }
  // With 16 in flight and aggregation every 6 uploads, some updates must
  // arrive after the model version they trained on has moved.
  EXPECT_TRUE(any_stale);
  EXPECT_GT(r.sim.final_accuracy, 0.0);
  EXPECT_EQ(r.sched.stale_discarded, 0u);  // max_staleness == 0 keeps all
}

TEST(RoundEngine, MaxStalenessDiscardsLateUploads) {
  const auto spec = testbed_spec(60);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);

  auto opt = base_options();
  opt.max_iterations = 12;
  opt.eval_every = 0;
  opt.schedule.mode = RoundMode::kBufferedAsync;
  opt.schedule.selection = Selection::kAvailabilityAware;
  opt.schedule.sample_size = 16;
  opt.schedule.async_buffer = 4;
  opt.schedule.max_staleness = 1;

  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  pop_spec.latency_log_sigma = 0.8;
  pop_spec.max_resident = 16;
  pop_spec.seed = 6;
  Population population(pop_spec, factory_for(spec, testbed));
  RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                     evaluator_for(testbed), opt);
  const EngineResult r = engine.run();
  EXPECT_GT(r.sched.stale_discarded, 0u);
  for (const auto& rec : r.sim.history) {
    EXPECT_LE(rec.staleness_max, 1u);
  }
}

// --- Kill-and-resume bit-identity in the production round modes ---

struct EngineRun {
  fl::SimulationOptions opt;
  PopulationSpec pop_spec;
  fl::ConvexTestbedSpec spec;
  std::shared_ptr<fl::ConvexTestbed> testbed;

  EngineResult run() const {
    Population population(pop_spec, factory_for(spec, testbed));
    RoundEngine engine(population,
                       std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(testbed), opt);
    return engine.run();
  }

  EngineResult crash_and_resume(std::size_t crash_at) const {
    {
      auto first_half = opt;
      first_half.max_iterations = crash_at;
      Population population(pop_spec, factory_for(spec, testbed));
      RoundEngine engine(population,
                         std::make_unique<core::AcceptAllFilter>(),
                         evaluator_for(testbed), first_half);
      engine.run();
    }  // the engine and its population die here
    const fl::TrainerCheckpoint ck =
        fl::load_checkpoint_file(opt.checkpoint_path);
    EXPECT_EQ(ck.iteration, crash_at);
    EXPECT_EQ(ck.sched.engaged, 1);
    Population population(pop_spec, factory_for(spec, testbed));
    RoundEngine engine(population,
                       std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(testbed), opt);
    return engine.resume(ck);
  }
};

EngineRun overselect_run(const std::string& path) {
  EngineRun r;
  r.spec = testbed_spec(40);
  r.testbed = std::make_shared<fl::ConvexTestbed>(r.spec);
  r.opt = base_options();
  r.opt.max_iterations = 10;
  r.opt.eval_every = 5;
  r.opt.checkpoint_every = 5;
  r.opt.checkpoint_path = path;
  r.opt.schedule.mode = RoundMode::kOverSelect;
  r.opt.schedule.selection = Selection::kAvailabilityAware;
  r.opt.schedule.sample_size = 10;
  r.opt.schedule.target_reports = 7;
  r.pop_spec.devices = r.spec.clients;
  r.pop_spec.mean_on_fraction = 0.8;
  r.pop_spec.dropout_mid_round = 0.05;
  r.pop_spec.max_resident = 6;
  r.pop_spec.seed = 5;
  return r;
}

TEST(RoundEngineResume, OverSelectionResumesBitIdentically) {
  const std::string path = ::testing::TempDir() + "ck_sched_osel.bin";
  std::remove(path.c_str());
  const EngineRun run = overselect_run(path);

  const EngineResult uninterrupted = run.run();
  const EngineResult resumed = run.crash_and_resume(5);

  expect_sim_bit_identical(resumed.sim, uninterrupted.sim);
  EXPECT_EQ(resumed.sched.invited, uninterrupted.sched.invited);
  EXPECT_EQ(resumed.sched.reported, uninterrupted.sched.reported);
  EXPECT_EQ(resumed.sched.discarded_stragglers,
            uninterrupted.sched.discarded_stragglers);
  EXPECT_EQ(resumed.sched.mid_round_dropouts,
            uninterrupted.sched.mid_round_dropouts);
  std::remove(path.c_str());
}

EngineRun async_run(const std::string& path) {
  EngineRun run;
  run.spec = testbed_spec(50);
  run.testbed = std::make_shared<fl::ConvexTestbed>(run.spec);
  run.opt = base_options();
  run.opt.max_iterations = 12;
  // Must divide the crash iteration so the killed run's forced final eval
  // coincides with a scheduled one (same caveat as the simulation tests).
  run.opt.eval_every = 3;
  run.opt.checkpoint_every = 6;
  run.opt.checkpoint_path = path;
  run.opt.schedule.mode = RoundMode::kBufferedAsync;
  run.opt.schedule.selection = Selection::kAvailabilityAware;
  run.opt.schedule.sample_size = 14;
  run.opt.schedule.async_buffer = 5;
  run.opt.schedule.staleness_exponent = 0.5;
  run.pop_spec.devices = run.spec.clients;
  run.pop_spec.mean_on_fraction = 0.85;
  run.pop_spec.latency_log_sigma = 0.6;
  run.pop_spec.max_resident = 8;
  run.pop_spec.seed = 9;
  return run;
}

TEST(RoundEngineResume, BufferedAsyncResumesBitIdentically) {
  const std::string path = ::testing::TempDir() + "ck_sched_async.bin";
  std::remove(path.c_str());
  const EngineRun run = async_run(path);

  const EngineResult uninterrupted = run.run();
  // The async checkpoint carries the in-flight report queue: reports
  // trained before the crash arrive after the resume.
  const EngineResult resumed = run.crash_and_resume(6);

  expect_sim_bit_identical(resumed.sim, uninterrupted.sim);
  EXPECT_EQ(resumed.sched.reported, uninterrupted.sched.reported);
  EXPECT_EQ(resumed.sched.stale_discarded,
            uninterrupted.sched.stale_discarded);
  std::remove(path.c_str());
}

TEST(RoundEngineResume, MalformedCheckpointIsRejectedBeforeStateChanges) {
  // A checkpoint is read from a file: a report that would index past the
  // population, an unknown kind, an upload of the wrong size, a device in
  // flight twice, a model version the run never reached (its staleness
  // would wrap around), a non-finite arrival, a queue that is not a heap,
  // and state for a device outside the population are each refused up
  // front.
  const std::string path = ::testing::TempDir() + "ck_sched_async_bad.bin";
  std::remove(path.c_str());
  const EngineRun run = async_run(path);  // 12 aggregations
  EngineRun first_half = run;
  first_half.opt.max_iterations = 6;
  first_half.run();
  const fl::TrainerCheckpoint ck = fl::load_checkpoint_file(path);
  auto& queue = ck.sched.in_flight;
  ASSERT_GE(queue.size(), 2u);
  const auto upload = static_cast<std::size_t>(
      std::find_if(queue.begin(), queue.end(),
                   [](const auto& f) { return f.kind == 1; }) -
      queue.begin());
  ASSERT_LT(upload, queue.size());

  using Mutation = std::function<void(fl::TrainerCheckpoint&)>;
  const std::vector<Mutation> mutations = {
      [](auto& c) { c.sched.in_flight[0].device += 1000000; },
      [](auto& c) { c.sched.in_flight[0].kind = 3; },
      [upload](auto& c) { c.sched.in_flight[upload].update.resize(3); },
      [](auto& c) {
        c.sched.in_flight[1].device = c.sched.in_flight[0].device;
      },
      [](auto& c) { c.sched.in_flight[0].version = c.sched.version + 1; },
      [](auto& c) { c.sched.in_flight[0].arrival = std::nan(""); },
      [](auto& c) { c.sched.in_flight[0].arrival = HUGE_VAL; },
      [](auto& c) {
        std::swap(c.sched.in_flight.front(), c.sched.in_flight.back());
      },
      [](auto& c) { c.client_state[1000000] = {}; },
      [](auto& c) { c.codec_state[1000000] = {}; },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    fl::TrainerCheckpoint bad = ck;
    mutations[i](bad);
    Population population(run.pop_spec, factory_for(run.spec, run.testbed));
    RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(run.testbed), run.opt);
    const util::StateMap before = population.states();
    EXPECT_THROW(engine.resume(bad), std::invalid_argument);
    EXPECT_EQ(population.states(), before);
  }
  std::remove(path.c_str());
}

TEST(RoundEngine, CodecSyncRunMatchesSimulationBitForBit) {
  // The engine's codec path must agree with FederatedSimulation's for every
  // production codec: same per-client codec streams (seed_salt + k), same
  // encoded byte accounting, same reconstructed aggregates.
  for (const char* spec : {"sign", "quant:8", "topk:0.1", "codebook:8,4"}) {
    SCOPED_TRACE(spec);
    const auto tb_spec = testbed_spec(10);
    auto testbed = std::make_shared<fl::ConvexTestbed>(tb_spec);
    auto opt = base_options();
    opt.codec.spec = spec;

    fl::ConvexWorkload w = fl::make_convex_workload(tb_spec);
    fl::FederatedSimulation sim(
        std::move(w.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w.evaluator, opt);
    const fl::SimulationResult reference = sim.run();

    PopulationSpec pop_spec;
    pop_spec.devices = tb_spec.clients;
    pop_spec.max_resident = 4;
    Population population(pop_spec, factory_for(tb_spec, testbed));
    RoundEngine engine(
        population,
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        evaluator_for(testbed), opt);
    const EngineResult result = engine.run();

    expect_sim_bit_identical(result.sim, reference);
  }
}

TEST(RoundEngine, CodecRunsAreThreadCountInvariant) {
  // The parallel trainer must not perturb any codec stream: per-client
  // codecs are seeded by device id and touched in a deterministic order, so
  // parallel and serial runs agree on every byte.
  auto run_with = [](bool parallel) {
    const auto tb_spec = testbed_spec(12);
    auto testbed = std::make_shared<fl::ConvexTestbed>(tb_spec);
    auto opt = base_options();
    opt.codec.spec = "topk:0.1";
    opt.parallel = parallel;
    PopulationSpec pop_spec;
    pop_spec.devices = tb_spec.clients;
    pop_spec.max_resident = 5;
    Population population(pop_spec, factory_for(tb_spec, testbed));
    RoundEngine engine(population,
                       std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(testbed), opt);
    return engine.run();
  };
  const EngineResult serial = run_with(false);
  const EngineResult parallel = run_with(true);
  expect_sim_bit_identical(parallel.sim, serial.sim);
  EXPECT_EQ(parallel.sched.reported, serial.sched.reported);
}

TEST(RoundEngine, CodecShrinksUploadedBytesInEveryRoundMode) {
  // The encoded-wire-bytes accounting flows through all three round modes.
  for (const RoundMode mode : {RoundMode::kSync, RoundMode::kOverSelect,
                               RoundMode::kBufferedAsync}) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto run_with = [&](const char* spec) {
      auto tb_spec = testbed_spec(20);
      tb_spec.dim = 512;  // large enough that headers do not dominate
      auto testbed = std::make_shared<fl::ConvexTestbed>(tb_spec);
      auto opt = base_options();
      opt.codec.spec = spec;
      opt.schedule.mode = mode;
      if (mode != RoundMode::kSync) {
        opt.schedule.selection = Selection::kAvailabilityAware;
        opt.schedule.sample_size = 10;
        opt.schedule.target_reports = 7;
        opt.schedule.async_buffer = 4;
      }
      PopulationSpec pop_spec;
      pop_spec.devices = tb_spec.clients;
      pop_spec.max_resident = 8;
      pop_spec.seed = 3;
      Population population(pop_spec, factory_for(tb_spec, testbed));
      RoundEngine engine(population,
                         std::make_unique<core::AcceptAllFilter>(),
                         evaluator_for(testbed), opt);
      return engine.run();
    };
    const EngineResult dense = run_with("dense");
    const EngineResult sign = run_with("sign");
    EXPECT_EQ(sign.sim.total_rounds, dense.sim.total_rounds);
    EXPECT_GT(sign.sim.uploaded_bytes, 0u);
    // Sign payloads are ~32x smaller; even with headers, 8x is safe.
    EXPECT_LT(sign.sim.uploaded_bytes, dense.sim.uploaded_bytes / 8);
  }
}

TEST(RoundEngineResume, CodecStateResumesBitIdenticallyInBothModes) {
  // The checkpoint's per-device codec streams (top-k residuals here) must
  // survive kill-and-resume in the over-selection and buffered-async modes:
  // a device's residual carries across the crash boundary.
  {
    const std::string path = ::testing::TempDir() + "ck_codec_osel.bin";
    std::remove(path.c_str());
    EngineRun run = overselect_run(path);
    run.opt.codec.spec = "topk:0.1";
    const EngineResult uninterrupted = run.run();
    const EngineResult resumed = run.crash_and_resume(5);
    expect_sim_bit_identical(resumed.sim, uninterrupted.sim);
    std::remove(path.c_str());
  }
  {
    const std::string path = ::testing::TempDir() + "ck_codec_async.bin";
    std::remove(path.c_str());
    EngineRun run;
    run.spec = testbed_spec(50);
    run.testbed = std::make_shared<fl::ConvexTestbed>(run.spec);
    run.opt = base_options();
    run.opt.codec.spec = "quant:4";
    run.opt.max_iterations = 12;
    run.opt.eval_every = 3;
    run.opt.checkpoint_every = 6;
    run.opt.checkpoint_path = path;
    run.opt.schedule.mode = RoundMode::kBufferedAsync;
    run.opt.schedule.selection = Selection::kAvailabilityAware;
    run.opt.schedule.sample_size = 14;
    run.opt.schedule.async_buffer = 5;
    run.pop_spec.devices = run.spec.clients;
    run.pop_spec.mean_on_fraction = 0.85;
    run.pop_spec.latency_log_sigma = 0.6;
    run.pop_spec.max_resident = 8;
    run.pop_spec.seed = 9;
    const EngineResult uninterrupted = run.run();
    const EngineResult resumed = run.crash_and_resume(6);
    expect_sim_bit_identical(resumed.sim, uninterrupted.sim);
    std::remove(path.c_str());
  }
}

// --- Sharded parameter-server bit-identity (DESIGN.md §17) ---

TEST(RoundEngine, ShardedRunsMatchSingleMasterBitForBit) {
  // The tentpole acceptance criterion: S in {1, 2, 4, 8} shards produce the
  // exact trajectory of the single-master path (S = 0), in a configuration
  // that exercises screening (non-finite-rejection policy active), CMFL
  // relevance filtering, and the robust clipped rule whose plan consumes the
  // shard workers' norms.
  auto run_with = [](std::size_t shards) {
    const auto spec = testbed_spec(24);
    auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
    auto opt = base_options();
    opt.max_iterations = 6;
    opt.aggregation = fl::Aggregation::kNormClippedMean;
    opt.schedule.mode = RoundMode::kOverSelect;
    opt.schedule.selection = Selection::kAvailabilityAware;
    opt.schedule.sample_size = 12;
    opt.schedule.target_reports = 9;
    opt.sharding.shards = shards;
    PopulationSpec pop_spec;
    pop_spec.devices = spec.clients;
    pop_spec.mean_on_fraction = 0.85;
    pop_spec.max_resident = 8;
    pop_spec.seed = 5;
    Population population(pop_spec, factory_for(spec, testbed));
    RoundEngine engine(
        population,
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        evaluator_for(testbed), opt);
    return engine.run();
  };

  const EngineResult single_master = run_with(0);
  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(s));
    const EngineResult sharded = run_with(s);
    expect_sim_bit_identical(sharded.sim, single_master.sim);
    EXPECT_EQ(sharded.sched.invited, single_master.sched.invited);
    EXPECT_EQ(sharded.sched.reported, single_master.sched.reported);
    EXPECT_EQ(sharded.sched.evictions, single_master.sched.evictions);
  }
}

TEST(RoundEngine, ShardingComposesWithWorkStealingPool) {
  // Both concurrency layers on at once (parallel training pool + sharded
  // ingest) against both off — still bit-identical.
  auto run_with = [](bool parallel, std::size_t shards) {
    const auto spec = testbed_spec(16);
    auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
    auto opt = base_options();
    opt.parallel = parallel;
    opt.sharding.shards = shards;
    PopulationSpec pop_spec;
    pop_spec.devices = spec.clients;
    pop_spec.max_resident = 5;
    Population population(pop_spec, factory_for(spec, testbed));
    RoundEngine engine(
        population,
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        evaluator_for(testbed), opt);
    return engine.run();
  };
  const EngineResult serial = run_with(false, 0);
  const EngineResult concurrent = run_with(true, 4);
  expect_sim_bit_identical(concurrent.sim, serial.sim);
  EXPECT_EQ(concurrent.sched.materializations, serial.sched.materializations);
  EXPECT_EQ(concurrent.sched.evictions, serial.sched.evictions);
  EXPECT_EQ(concurrent.sched.peak_resident_clients,
            serial.sched.peak_resident_clients);
}

TEST(RoundEngineResume, ShardStatsResumeBitIdentically) {
  // Checkpoint v4 carries per-shard ingest counters; a killed-and-resumed
  // sharded run must agree with the uninterrupted one on the trajectory.
  const std::string path = ::testing::TempDir() + "ck_sched_shard.bin";
  std::remove(path.c_str());
  EngineRun run = overselect_run(path);
  run.opt.sharding.shards = 3;

  const EngineResult uninterrupted = run.run();
  const EngineResult resumed = run.crash_and_resume(5);
  expect_sim_bit_identical(resumed.sim, uninterrupted.sim);
  EXPECT_EQ(resumed.sched.reported, uninterrupted.sched.reported);
  std::remove(path.c_str());
}

TEST(RoundEngineResume, ShardConfigMismatchIsRejected) {
  const std::string path = ::testing::TempDir() + "ck_sched_shard_mm.bin";
  std::remove(path.c_str());
  EngineRun run = overselect_run(path);
  run.opt.sharding.shards = 2;
  {
    auto first_half = run.opt;
    first_half.max_iterations = 5;
    Population population(run.pop_spec, factory_for(run.spec, run.testbed));
    RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(run.testbed), first_half);
    engine.run();
  }
  const fl::TrainerCheckpoint ck = fl::load_checkpoint_file(path);
  EXPECT_FALSE(ck.shard_stats.empty());

  // Resuming a sharded checkpoint with sharding disabled must throw...
  {
    auto no_shards = run.opt;
    no_shards.sharding.shards = 0;
    Population population(run.pop_spec, factory_for(run.spec, run.testbed));
    RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(run.testbed), no_shards);
    EXPECT_THROW(engine.resume(ck), std::invalid_argument);
  }
  // ...and so must a different shard count (stats word count mismatch).
  {
    auto more_shards = run.opt;
    more_shards.sharding.shards = 4;
    Population population(run.pop_spec, factory_for(run.spec, run.testbed));
    RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(run.testbed), more_shards);
    EXPECT_THROW(engine.resume(ck), std::invalid_argument);
  }
  std::remove(path.c_str());
}

TEST(RoundEngine, SyncRunEndsOnceEveryDeviceIsQuarantined) {
  // Every device fabricates garbage that the norm cap rejects, and one
  // strike quarantines it.  Once nobody is left the run ends instead of
  // committing empty rounds, with or without a sampled cohort.
  const auto spec = testbed_spec(4);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
  const ClientFactory honest = factory_for(spec, testbed);
  fl::AdversarySpec garbage;
  garbage.attack = fl::Attack::kGarbage;
  for (const std::size_t cohort : {0u, 2u}) {
    SCOPED_TRACE("sample_size " + std::to_string(cohort));
    PopulationSpec pop_spec;
    pop_spec.devices = spec.clients;
    Population population(pop_spec, [&](std::uint64_t k) {
      return std::make_unique<fl::ByzantineClient>(honest(k), garbage, k);
    });
    auto opt = base_options();
    opt.validation.max_norm = 1.0;
    opt.validation.quarantine_after = 1;
    opt.schedule.sample_size = cohort;
    RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                       evaluator_for(testbed), opt);
    const EngineResult r = engine.run();
    EXPECT_EQ(r.sim.validation.quarantined_count(), spec.clients);
    // Full participation quarantines all four in round 1; cohorts of two
    // take rounds 1 and 2.
    EXPECT_EQ(r.sim.history.size(), cohort == 0 ? 1u : 2u);
  }
}

TEST(RoundEngineResume, SimulationCheckpointResumesUnderTheEngine) {
  // FederatedSimulation runs on the engine, so its checkpoints are engine
  // checkpoints: a RoundEngine over the same clients (kSync, full
  // participation) resumes one bit-identically.  A stateful codec makes
  // the per-device codec state cross over too.
  const auto spec = testbed_spec(6);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
  const std::string path = ::testing::TempDir() + "sim_to_engine.ck";
  std::remove(path.c_str());
  auto opt = base_options();
  opt.codec.spec = "quant:4";
  const auto filter = [] {
    return std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45));
  };

  fl::ConvexWorkload w_ref = fl::make_convex_workload(spec);
  fl::FederatedSimulation ref(std::move(w_ref.clients), filter(),
                              w_ref.evaluator, opt);
  const fl::SimulationResult uninterrupted = ref.run();
  {
    auto first_half = opt;
    first_half.max_iterations = 4;
    first_half.checkpoint_every = 4;
    first_half.checkpoint_path = path;
    fl::ConvexWorkload w = fl::make_convex_workload(spec);
    fl::FederatedSimulation sim(std::move(w.clients), filter(), w.evaluator,
                                first_half);
    sim.run();
  }

  const fl::TrainerCheckpoint ck = fl::load_checkpoint_file(path);
  EXPECT_EQ(ck.iteration, 4u);
  EXPECT_EQ(ck.sched.engaged, 1u);
  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  Population population(pop_spec, factory_for(spec, testbed));
  RoundEngine engine(population, filter(), evaluator_for(testbed), opt);
  expect_sim_bit_identical(engine.resume(ck).sim, uninterrupted);
  std::remove(path.c_str());
}

TEST(RoundEngine, RejectsUnsupportedOptionsAndForeignCheckpoints) {
  const auto spec = testbed_spec(4);
  auto testbed = std::make_shared<fl::ConvexTestbed>(spec);
  PopulationSpec pop_spec;
  pop_spec.devices = spec.clients;
  Population population(pop_spec, factory_for(spec, testbed));

  auto bogus = base_options();
  bogus.codec.spec = "zstd";  // codecs are supported now, unknown specs not
  EXPECT_THROW(RoundEngine(population,
                           std::make_unique<core::AcceptAllFilter>(),
                           evaluator_for(testbed), bogus),
               std::invalid_argument);

  auto capture = base_options();
  capture.capture_client_params = true;
  EXPECT_THROW(RoundEngine(population,
                           std::make_unique<core::AcceptAllFilter>(),
                           evaluator_for(testbed), capture),
               std::invalid_argument);

  // Non-finite schedule knobs: NaN passed the old `x < lo` checks and
  // resolved K through an undefined float-to-integer cast.
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    for (double ScheduleOptions::*knob :
         {&ScheduleOptions::over_select_factor,
          &ScheduleOptions::round_deadline_s,
          &ScheduleOptions::staleness_exponent}) {
      auto opt = base_options();
      opt.schedule.*knob = bad;
      EXPECT_THROW(RoundEngine(population,
                               std::make_unique<core::AcceptAllFilter>(),
                               evaluator_for(testbed), opt),
                   std::invalid_argument)
          << bad;
    }
  }

  RoundEngine engine(population, std::make_unique<core::AcceptAllFilter>(),
                     evaluator_for(testbed), base_options());
  fl::TrainerCheckpoint not_engine;  // sched.engaged == 0
  not_engine.iteration = 1;
  not_engine.global_params.assign(engine.param_count(), 0.0f);
  EXPECT_THROW(engine.resume(not_engine), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::sched
