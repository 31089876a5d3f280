// Cross-runtime parity of the server's commit step: the in-process
// FederatedSimulation, sched::RoundEngine (sync, full participation), the
// socket FlCluster and its 3-replica Raft-replicated control plane must
// screen, aggregate and apply every round identically, for every
// aggregation rule.  One garbage-sending Byzantine client and a relative
// norm bound make screening reject updates and quarantine the sender, so
// the validator's verdicts, strikes and quarantine are part of what must
// agree.  All four agree on every field of every round's record but two:
// cumulative_upload_bytes (the clusters count reply frames, eliminations
// included) and mean_train_loss (a cluster reply carries no loss).  The two
// in-process runtimes agree on the whole record.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/adversary.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "fl/robust_agg.h"
#include "fl/simulation.h"
#include "net/cluster.h"
#include "sched/population.h"
#include "sched/round_engine.h"

namespace cmfl::fl {
namespace {

ConvexTestbedSpec testbed_spec() {
  ConvexTestbedSpec spec;
  spec.clients = 8;
  spec.dim = 16;
  spec.local_steps = 3;
  spec.gradient_noise = 0.1;
  spec.seed = 23;
  return spec;
}

AdversarySpec garbage_spec() {
  AdversarySpec adv;
  adv.attack = Attack::kGarbage;
  // About half the garbage updates carry a NaN/±inf coordinate; the rest
  // are finite but norm-exploded, so both rejection paths fire.
  adv.garbage_stddev = 100.0;
  adv.garbage_nonfinite = 0.5;
  return adv;
}

SimulationOptions options_for(Aggregation rule) {
  SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.1);
  opt.max_iterations = 16;
  opt.eval_every = 4;
  opt.aggregation = rule;
  opt.robust_aggregation.trim_fraction = 0.2;
  opt.validation.norm_multiple = 10.0;
  opt.validation.quarantine_after = 6;
  opt.seed = 1234;
  return opt;
}

std::unique_ptr<core::UpdateFilter> make_filter() {
  return std::make_unique<core::CmflFilter>(core::Schedule::constant(0.3));
}

/// The testbed's clients with client 0 replaced by a garbage sender.
std::vector<std::unique_ptr<FlClient>> clients_with_attacker(
    ConvexWorkload& w) {
  std::vector<std::unique_ptr<FlClient>> clients = std::move(w.clients);
  clients[0] = std::make_unique<ByzantineClient>(std::move(clients[0]),
                                                 garbage_spec(), 0);
  return clients;
}

SimulationResult run_simulation(Aggregation rule) {
  ConvexWorkload w = make_convex_workload(testbed_spec());
  FederatedSimulation sim(clients_with_attacker(w), make_filter(), w.evaluator,
                          options_for(rule));
  return sim.run();
}

SimulationResult run_engine(Aggregation rule) {
  const ConvexTestbedSpec spec = testbed_spec();
  ConvexWorkload w = make_convex_workload(spec);
  // Materializes exactly the clients make_convex_workload built (same
  // centers, same RNG streams), wrapping device 0 like the eager runs.
  std::shared_ptr<ConvexTestbed> testbed = w.testbed;
  sched::ClientFactory factory = [spec, testbed](std::uint64_t k) {
    std::unique_ptr<FlClient> c = std::make_unique<ConvexClient>(
        testbed->centers()[k], spec.local_steps, spec.gradient_noise,
        util::Rng(spec.seed ^ 0xFEEDFACEULL).split(k),
        static_cast<float>(spec.start_offset));
    if (k == 0) {
      c = std::make_unique<ByzantineClient>(std::move(c), garbage_spec(), 0);
    }
    return c;
  };
  sched::PopulationSpec pop;
  pop.devices = spec.clients;
  pop.max_resident = 3;  // evict mid-run: attack state must survive it
  sched::Population population(pop, factory);
  sched::RoundEngine engine(population, make_filter(), w.evaluator,
                            options_for(rule));
  return engine.run().sim;
}

SimulationResult run_cluster(Aggregation rule, int replicas) {
  ConvexWorkload w = make_convex_workload(testbed_spec());
  net::ClusterOptions opt;
  opt.fl = options_for(rule);
  opt.replication.replicas = replicas;
  net::FlCluster cluster(clients_with_attacker(w), make_filter(), w.evaluator,
                         opt);
  return cluster.run().sim;
}

void expect_same_commits(const SimulationResult& got,
                         const SimulationResult& want) {
  EXPECT_EQ(got.final_params, want.final_params);
  ASSERT_EQ(got.history.size(), want.history.size());
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(got.history[i].uploads, want.history[i].uploads);
    EXPECT_EQ(got.history[i].rejected, want.history[i].rejected);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.history[i].delta_update),
              std::bit_cast<std::uint64_t>(want.history[i].delta_update));
    EXPECT_EQ(got.history[i].participants, want.history[i].participants);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.history[i].mean_score),
              std::bit_cast<std::uint64_t>(want.history[i].mean_score));
    EXPECT_EQ(got.history[i].iteration, want.history[i].iteration);
    EXPECT_EQ(got.history[i].cumulative_rounds,
              want.history[i].cumulative_rounds);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.history[i].staleness_mean),
              std::bit_cast<std::uint64_t>(want.history[i].staleness_mean));
    EXPECT_EQ(got.history[i].staleness_max, want.history[i].staleness_max);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.history[i].accuracy),
              std::bit_cast<std::uint64_t>(want.history[i].accuracy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.history[i].loss),
              std::bit_cast<std::uint64_t>(want.history[i].loss));
  }
  EXPECT_EQ(got.validation, want.validation);
  EXPECT_EQ(got.uploads_per_client, want.uploads_per_client);
  EXPECT_EQ(got.eliminations_per_client, want.eliminations_per_client);
}

class RuntimeParity : public ::testing::TestWithParam<Aggregation> {};

TEST_P(RuntimeParity, AllFourRuntimesCommitIdentically) {
  const Aggregation rule = GetParam();
  const SimulationResult reference = run_simulation(rule);

  // The scenario must exercise screening: both rejection kinds fire and
  // the attacker ends the run quarantined.
  EXPECT_GT(reference.validation.rejected_nonfinite, 0u);
  EXPECT_GT(reference.validation.rejected_norm, 0u);
  ASSERT_EQ(reference.validation.quarantined.size(), 8u);
  EXPECT_EQ(reference.validation.quarantined[0], 1u);
  EXPECT_EQ(reference.validation.quarantined_count(), 1u);

  {
    SCOPED_TRACE("RoundEngine");
    const SimulationResult engine = run_engine(rule);
    expect_same_commits(engine, reference);
    ASSERT_EQ(engine.history.size(), reference.history.size());
    for (std::size_t i = 0; i < reference.history.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(engine.history[i], reference.history[i]))
          << "round " << i + 1;
    }
  }
  {
    SCOPED_TRACE("FlCluster");
    expect_same_commits(run_cluster(rule, 0), reference);
  }
  {
    SCOPED_TRACE("FlCluster, 3 replicas");
    expect_same_commits(run_cluster(rule, 3), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, RuntimeParity,
    ::testing::Values(Aggregation::kUniformMean, Aggregation::kSampleWeighted,
                      Aggregation::kMedian, Aggregation::kTrimmedMean,
                      Aggregation::kNormClippedMean),
    [](const ::testing::TestParamInfo<Aggregation>& info) {
      return aggregation_name(info.param);
    });

}  // namespace
}  // namespace cmfl::fl
