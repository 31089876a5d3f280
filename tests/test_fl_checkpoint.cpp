// Crash-consistent checkpoint/resume: codec round trips, corruption
// rejection, and the central invariant — kill a run at iteration k, rebuild
// everything from the checkpoint file, and the resumed trajectory is
// bit-identical to the uninterrupted one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/checkpoint.h"
#include "fl/convex_testbed.h"
#include "fl/simulation.h"
#include "fl/workloads.h"

namespace cmfl::fl {
namespace {

TrainerCheckpoint sample_checkpoint() {
  TrainerCheckpoint ck;
  ck.iteration = 42;
  ck.global_params = {1.5f, -2.25f, 0.0f};
  ck.estimator_estimate = {0.125f, 0.5f, -1.0f};
  ck.estimator_observed = true;
  ck.prev_global_update = {0.25f, 0.0f, -0.75f};
  ck.cumulative_rounds = 321;
  ck.uploaded_bytes = 98765;
  IterationRecord evaluated;
  evaluated.iteration = 41;
  evaluated.uploads = 7;
  evaluated.participants = 9;
  evaluated.rejected = 2;
  evaluated.cumulative_rounds = 300;
  evaluated.cumulative_upload_bytes = 77777;
  evaluated.mean_score = 0.625;
  evaluated.mean_train_loss = 1.75;
  evaluated.delta_update = 0.03125;
  evaluated.staleness_mean = 1.25;
  evaluated.staleness_max = 3;
  evaluated.accuracy = 0.875;
  evaluated.loss = 0.5;
  IterationRecord unevaluated;  // NaN accuracy/loss must survive the codec
  unevaluated.iteration = 42;
  unevaluated.uploads = 8;
  ck.history = {evaluated, unevaluated};
  ck.eliminations_per_client = {3, 0, 12};
  ck.uploads_per_client = {39, 42, 30};
  ck.validation.rejected_nonfinite = 5;
  ck.validation.rejected_norm = 2;
  ck.validation.discarded_quarantined = 1;
  ck.validation.strikes = {0, 3, 1};
  ck.validation.quarantined = {0, 1, 0};
  ck.client_state = {{10, 20, 30, 40}, {}, {50, 60, 70, 80, 90}};
  ck.compressor_state = {{}, {11, 12, 13, 14}, {}};
  ck.meters.uplink_bytes = 1000;
  ck.meters.uplink_messages = 10;
  ck.meters.uplink_retransmitted = 100;
  ck.meters.downlink_bytes = 2000;
  ck.meters.downlink_messages = 20;
  ck.meters.downlink_retransmitted = 0;
  ck.meters.upload_messages = 8;
  ck.meters.elimination_messages = 2;
  ck.meters.simulated_transfer_seconds = 12.5;
  ck.sched.engaged = 1;
  ck.sched.version = 17;
  ck.sched.virtual_now = 123.0625;
  ck.sched.invite_counter = 256;
  ck.sched.engine_rng = {9, 8, 7, 6};
  SchedInFlightReport upload;
  upload.device = 41;
  upload.version = 15;
  upload.arrival = 124.5;
  upload.kind = 1;
  upload.score = 0.375;
  upload.train_loss = 2.25;
  upload.local_samples = 6;
  upload.wire_bytes = 321;
  upload.update = {0.5f, -0.25f, 1.0f};
  SchedInFlightReport elimination;
  elimination.device = 99;
  elimination.version = 16;
  elimination.arrival = 130.0;
  elimination.kind = 0;
  elimination.score = 0.125;
  ck.sched.in_flight = {upload, elimination};
  ck.sched.population_state = {2, 41, 4, 1, 2, 3, 4, 99, 0};
  ck.sched.invited = 400;
  ck.sched.reported = 350;
  ck.sched.unavailable_invited = 30;
  ck.sched.mid_round_dropouts = 20;
  ck.sched.discarded_stragglers = 15;
  ck.sched.stale_discarded = 5;
  ck.sched.codec_devices = {41, 99};
  ck.sched.codec_state = {{21, 22, 23}, {}};
  return ck;
}

void expect_checkpoints_equal(const TrainerCheckpoint& a,
                              const TrainerCheckpoint& b) {
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.global_params, b.global_params);
  EXPECT_EQ(a.estimator_estimate, b.estimator_estimate);
  EXPECT_EQ(a.estimator_observed, b.estimator_observed);
  EXPECT_EQ(a.prev_global_update, b.prev_global_update);
  EXPECT_EQ(a.cumulative_rounds, b.cumulative_rounds);
  EXPECT_EQ(a.uploaded_bytes, b.uploaded_bytes);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.history[i], b.history[i])) << "record " << i;
  }
  EXPECT_EQ(a.eliminations_per_client, b.eliminations_per_client);
  EXPECT_EQ(a.uploads_per_client, b.uploads_per_client);
  EXPECT_EQ(a.validation, b.validation);
  EXPECT_EQ(a.client_state, b.client_state);
  EXPECT_EQ(a.compressor_state, b.compressor_state);
  EXPECT_EQ(a.meters, b.meters);
  EXPECT_EQ(a.sched, b.sched);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const TrainerCheckpoint ck = sample_checkpoint();
  expect_checkpoints_equal(decode_checkpoint(encode_checkpoint(ck)), ck);
}

TEST(Checkpoint, DecodeRejectsTruncationAndTrailingBytes) {
  const std::vector<std::byte> payload =
      encode_checkpoint(sample_checkpoint());
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{7}, payload.size() / 2,
        payload.size() - 1}) {
    EXPECT_THROW(
        decode_checkpoint(std::span(payload).first(cut)),
        std::runtime_error)
        << "cut " << cut;
  }
  std::vector<std::byte> padded = payload;
  padded.push_back(std::byte{0});
  EXPECT_THROW(decode_checkpoint(padded), std::runtime_error);
}

TEST(Checkpoint, FileRoundTripAndCorruptionDetection) {
  const std::string path = ::testing::TempDir() + "ck_roundtrip.bin";
  std::remove(path.c_str());
  const TrainerCheckpoint ck = sample_checkpoint();
  save_checkpoint_file(path, ck);
  expect_checkpoints_equal(load_checkpoint_file(path), ck);

  // One flipped payload bit -> CRC rejection.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(20);
  char c;
  f.get(c);
  f.seekp(20);
  f.put(static_cast<char>(c ^ 0x01));
  f.close();
  EXPECT_THROW(load_checkpoint_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, BitwiseEqualTreatsNaNFieldsAsEqual) {
  IterationRecord a;
  IterationRecord b;
  EXPECT_TRUE(bitwise_equal(a, b));  // both accuracy/loss NaN
  b.accuracy = 0.5;
  EXPECT_FALSE(bitwise_equal(a, b));
  b.accuracy = std::numeric_limits<double>::quiet_NaN();
  b.uploads = 1;
  EXPECT_FALSE(bitwise_equal(a, b));
}

// --- The resume invariant ---

void expect_bit_identical(const SimulationResult& resumed,
                          const SimulationResult& uninterrupted) {
  EXPECT_EQ(resumed.final_params, uninterrupted.final_params);
  ASSERT_EQ(resumed.history.size(), uninterrupted.history.size());
  for (std::size_t i = 0; i < uninterrupted.history.size(); ++i) {
    EXPECT_TRUE(
        bitwise_equal(resumed.history[i], uninterrupted.history[i]))
        << "iteration record " << i;
  }
  EXPECT_EQ(resumed.eliminations_per_client,
            uninterrupted.eliminations_per_client);
  EXPECT_EQ(resumed.uploaded_bytes, uninterrupted.uploaded_bytes);
  EXPECT_EQ(resumed.total_rounds, uninterrupted.total_rounds);
  EXPECT_EQ(resumed.validation, uninterrupted.validation);
  EXPECT_EQ(resumed.final_accuracy, uninterrupted.final_accuracy);
}

DigitsMlpSpec mlp_spec() {
  DigitsMlpSpec spec;
  spec.clients = 8;
  spec.train_samples = 240;
  spec.test_samples = 80;
  spec.hidden = {16};
  spec.digits.image_size = 8;
  spec.seed = 11;
  return spec;
}

TEST(CheckpointResume, MlpRunResumesBitIdentically) {
  const std::string path = ::testing::TempDir() + "ck_mlp.bin";
  std::remove(path.c_str());

  SimulationOptions opt;
  opt.local_epochs = 2;
  opt.batch_size = 5;
  opt.learning_rate = core::Schedule::constant(0.1);
  opt.max_iterations = 12;
  opt.eval_every = 2;
  opt.checkpoint_every = 6;
  opt.checkpoint_path = path;

  // Uninterrupted reference run (checkpoint writes must not perturb it).
  Workload w_ref = make_digits_mlp_workload(mlp_spec());
  FederatedSimulation ref(
      std::move(w_ref.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w_ref.evaluator, opt);
  const SimulationResult uninterrupted = ref.run();

  // "Crash" at iteration 6: run only that far, keep the checkpoint file.
  {
    SimulationOptions first_half = opt;
    first_half.max_iterations = 6;
    Workload w = make_digits_mlp_workload(mlp_spec());
    FederatedSimulation sim(
        std::move(w.clients),
        std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
        w.evaluator, first_half);
    sim.run();
  }  // the trainer object is destroyed here

  // Rebuild the workload from its spec and resume from the file.
  const TrainerCheckpoint ck = load_checkpoint_file(path);
  EXPECT_EQ(ck.iteration, 6u);
  Workload w2 = make_digits_mlp_workload(mlp_spec());
  FederatedSimulation resumed_sim(
      std::move(w2.clients),
      std::make_unique<core::CmflFilter>(core::Schedule::constant(0.45)),
      w2.evaluator, opt);
  const SimulationResult resumed = resumed_sim.resume(ck);

  expect_bit_identical(resumed, uninterrupted);
  std::remove(path.c_str());
}

TEST(CheckpointResume, StochasticOptionsResumeBitIdentically) {
  // The hard case: partial participation consumes the server RNG, lossy
  // subsampled coding consumes per-client codec streams, and the
  // convex clients consume per-client noise streams.  All of it must be
  // captured and restored.
  const std::string path = ::testing::TempDir() + "ck_convex.bin";
  std::remove(path.c_str());

  ConvexTestbedSpec spec;
  spec.clients = 10;
  spec.dim = 12;
  spec.gradient_noise = 0.1;
  spec.local_steps = 3;
  spec.seed = 23;

  SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.1);
  opt.max_iterations = 9;
  // Must divide the checkpoint iteration: the interrupted run's forced
  // final-iteration eval then coincides with a scheduled one, keeping the
  // checkpointed history identical to the uninterrupted run's.
  opt.eval_every = 2;
  opt.participation = 0.6;
  opt.codec.spec = "subsample:0.5";
  opt.parallel = false;
  opt.checkpoint_every = 4;
  opt.checkpoint_path = path;

  ConvexWorkload w_ref = make_convex_workload(spec);
  FederatedSimulation ref(std::move(w_ref.clients),
                          std::make_unique<core::AcceptAllFilter>(),
                          w_ref.evaluator, opt);
  const SimulationResult uninterrupted = ref.run();

  {
    SimulationOptions first_half = opt;
    first_half.max_iterations = 4;
    ConvexWorkload w = make_convex_workload(spec);
    FederatedSimulation sim(std::move(w.clients),
                            std::make_unique<core::AcceptAllFilter>(),
                            w.evaluator, first_half);
    sim.run();
  }

  const TrainerCheckpoint ck = load_checkpoint_file(path);
  EXPECT_EQ(ck.iteration, 4u);
  ConvexWorkload w2 = make_convex_workload(spec);
  FederatedSimulation resumed_sim(std::move(w2.clients),
                                  std::make_unique<core::AcceptAllFilter>(),
                                  w2.evaluator, opt);
  const SimulationResult resumed = resumed_sim.resume(ck);

  expect_bit_identical(resumed, uninterrupted);
  std::remove(path.c_str());
}

TEST(CheckpointResume, MismatchedCheckpointIsRejected) {
  ConvexTestbedSpec spec;
  spec.clients = 4;
  spec.dim = 8;
  ConvexWorkload w = make_convex_workload(spec);
  SimulationOptions opt;
  opt.max_iterations = 4;
  FederatedSimulation sim(std::move(w.clients),
                          std::make_unique<core::AcceptAllFilter>(),
                          w.evaluator, opt);

  TrainerCheckpoint wrong_dim = sample_checkpoint();  // dim 3, 3 clients
  EXPECT_THROW(sim.resume(wrong_dim), std::invalid_argument);

  TrainerCheckpoint wrong_clients;
  wrong_clients.iteration = 1;
  wrong_clients.global_params.assign(8, 0.0f);
  wrong_clients.estimator_estimate.assign(8, 0.0f);
  wrong_clients.client_state.resize(3);      // 3 states for 4 clients
  wrong_clients.compressor_state.resize(3);
  wrong_clients.eliminations_per_client.resize(3);
  wrong_clients.validation.strikes.resize(3);
  wrong_clients.validation.quarantined.resize(3);
  EXPECT_THROW(sim.resume(wrong_clients), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::fl
