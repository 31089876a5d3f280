#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "codec/codec.h"
#include "core/filter.h"
#include "fl/workloads.h"
#include "net/cluster.h"
#include "net/message.h"
#include "net/wire.h"
#include "sched/population.h"

namespace perfbench {

namespace fl = cmfl::fl;
namespace core = cmfl::core;
namespace sched = cmfl::sched;
namespace net = cmfl::net;

namespace {

// Each workload is sized so one operation takes about a second or less and
// a run averages `seeds` of them: rounds-to-target varies by 20-30 %
// (coefficient of variation) between seeds — non-IID data, CMFL's jagged
// convergence — so a steady per-run figure needs many seeds, not one long
// run.  min_uploads keeps the
// §III-B empty-round stall from ending an operation at chance accuracy.
const std::vector<WorkloadConfig> kWorkloads = {
    // Train-step bound: the paper's digits CNN, serial training.  Four
    // simulations run side by side: one serial thread's speed on a shared
    // host drifts by tens of percent over seconds, four cores' average far
    // less.
    {"sim_cnn", Runtime::kSimulation, 0.5, 128, "dense", 0, 0, false, 4},
    // Ingest bound: a ~2e5-parameter MLP, two local SGD steps per device,
    // every upload sign-encoded and decoded on the engine thread.
    {"engine_sign", Runtime::kEngine, 0.7, 28, "sign", 2, 0, true, 1},
    // Wire bound: ~1 MB dense frames between 3 worker threads and the master.
    {"cluster_dense", Runtime::kCluster, 0.75, 56, "dense", 0, 3, false, 1},
};

constexpr std::size_t kMaxIterations = 60;

struct OpClock {
  double target = 0.0;
  std::int64_t hit = -1;  // first evaluation at the target, or -1
};

/// Wraps the evaluator to timestamp the first evaluation at the target and,
/// when tracing, to span the evaluation and close the round.  Called only
/// from the runtime's coordinating thread.
fl::GlobalEvaluator wrap_evaluator(fl::GlobalEvaluator inner, std::shared_ptr<OpClock> clock,
                                   Tracer* tracer) {
  return [inner = std::move(inner), clock, tracer](std::span<const float> params) {
    cmfl::nn::EvalResult r;
    if (tracer != nullptr) {
      ScopedSpan span(*tracer, Layer::kEval);
      r = inner(params);
    } else {
      r = inner(params);
    }
    const std::int64_t t = now_ns();
    if (clock->hit < 0 && std::isfinite(r.loss) && r.accuracy >= clock->target) {
      clock->hit = t;
    }
    if (tracer != nullptr) tracer->end_round(t);
    return r;
  };
}

std::unique_ptr<core::UpdateFilter> make_filter(double threshold, Tracer* tracer) {
  std::unique_ptr<core::UpdateFilter> f =
      std::make_unique<core::CmflFilter>(core::Schedule::constant(threshold));
  if (tracer != nullptr) f = std::make_unique<TracedFilter>(std::move(f), *tracer);
  return f;
}

fl::SimulationOptions base_options(const WorkloadConfig& w, std::uint64_t seed) {
  fl::SimulationOptions opt;
  opt.max_iterations = kMaxIterations;
  opt.eval_every = 1;
  opt.target_accuracy = w.target;
  opt.parallel = w.parallel;
  opt.codec.spec = w.codec;
  opt.sharding.shards = w.shards;
  opt.seed = seed ^ 0x5e7e5e7eULL;
  return opt;
}

/// Shared timing of run(): starts the tracer's first round, records the
/// run wall time and the time to the first evaluation at the target.
class TimedOp : public PreparedOp {
 protected:
  TimedOp(const WorkloadConfig& w, Tracer* tracer)
      : clock_(std::make_shared<OpClock>(OpClock{w.target})), tracer_(tracer) {}

  template <typename Fn>
  auto timed(OpResult& out, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    if (tracer_ != nullptr) tracer_->start_run(t0);
    auto result = fn();
    out.run_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (clock_->hit >= 0) out.target_s = static_cast<double>(clock_->hit - t0) * 1e-9;
    return result;
  }

  std::shared_ptr<OpClock> clock_;
  Tracer* tracer_;
};

class SimOp final : public TimedOp {
 public:
  SimOp(const WorkloadConfig& w, std::uint64_t seed, Tracer* tracer) : TimedOp(w, tracer) {
    fl::DigitsCnnSpec spec;  // §V-A(1) CNN at the federated_digits example scale
    spec.clients = 20;
    spec.train_samples = spec.clients * 20;
    spec.test_samples = 600;
    spec.cnn.image_size = 12;
    spec.cnn.conv1_filters = 4;
    spec.cnn.conv2_filters = 8;
    spec.cnn.fc_width = 32;
    spec.digits.image_size = 12;
    spec.digits.noise_stddev = 0.25f;
    spec.digits.noise_density = 0.15f;
    spec.seed = seed;
    fl::Workload wl = fl::make_digits_cnn_workload(spec);
    clients_ = wl.clients.size();

    fl::SimulationOptions opt = base_options(w, seed);
    opt.local_epochs = 3;
    opt.batch_size = 2;
    opt.learning_rate = core::Schedule::inv_sqrt(0.15);
    opt.min_uploads = 2;
    auto clients = std::move(wl.clients);
    if (tracer != nullptr) clients = trace_clients(std::move(clients), *tracer);
    sim_ = std::make_unique<fl::FederatedSimulation>(
        std::move(clients), make_filter(0.46, tracer),
        wrap_evaluator(wl.evaluator, clock_, tracer), opt);
  }

  OpResult run() override {
    OpResult out;
    fl::SimulationResult r = timed(out, [&] { return sim_->run(); });
    out.dim = sim_->param_count();
    out.clients = clients_;
    out.up_bytes = r.uploaded_bytes;
    out.history = std::move(r.history);
    out.final_params = std::move(r.final_params);
    return out;
  }

 private:
  std::size_t clients_ = 0;
  std::unique_ptr<fl::FederatedSimulation> sim_;
};

class EngineOp final : public TimedOp {
 public:
  EngineOp(const WorkloadConfig& w, std::uint64_t seed, Tracer* tracer) : TimedOp(w, tracer) {
    fl::DigitsMlpSpec spec;
    spec.clients = 200;  // population size: one device per data partition
    spec.train_samples = spec.clients * 8;
    spec.test_samples = 200;
    spec.hidden = {1400};  // 144·1400 + 1400·10 + biases ≈ 2.2e5 parameters
    spec.partition = "iid";
    spec.seed = seed;
    workload_ = fl::make_digits_mlp_population(spec);

    sched::PopulationSpec pspec;
    pspec.devices = spec.clients;
    pspec.mean_on_fraction = 0.8;
    pspec.dropout_mid_round = 0.05;
    pspec.max_resident = 16;
    pspec.seed = seed ^ 0x9091a7e5ULL;
    sched::ClientFactory factory = workload_.factory;
    if (tracer != nullptr) factory = trace_factory(std::move(factory), *tracer);
    population_ = std::make_unique<sched::Population>(pspec, std::move(factory));

    fl::SimulationOptions opt = base_options(w, seed);
    opt.local_epochs = 1;
    opt.batch_size = 4;
    opt.learning_rate = core::Schedule::inv_sqrt(1.0);
    opt.min_uploads = 2;
    opt.schedule.mode = sched::RoundMode::kOverSelect;
    opt.schedule.selection = sched::Selection::kAvailabilityAware;
    opt.schedule.sample_size = 26;
    opt.schedule.target_reports = 20;
    engine_ = std::make_unique<sched::RoundEngine>(
        *population_, make_filter(0.3, tracer),
        wrap_evaluator(workload_.evaluator, clock_, tracer), opt);
  }

  OpResult run() override {
    OpResult out;
    sched::EngineResult r = timed(out, [&] { return engine_->run(); });
    out.dim = engine_->param_count();
    out.clients = static_cast<std::size_t>(population_->size());
    out.up_bytes = r.sim.uploaded_bytes;
    for (std::size_t u : r.sim.uploads_per_client) out.uplink_uploads += u;
    out.sched = r.sched;
    out.history = std::move(r.sim.history);
    out.final_params = std::move(r.sim.final_params);
    return out;
  }

 private:
  fl::PopulationWorkload workload_;
  std::unique_ptr<sched::Population> population_;  // outlives engine_
  std::unique_ptr<sched::RoundEngine> engine_;
};

class ClusterOp final : public TimedOp {
 public:
  ClusterOp(const WorkloadConfig& w, std::uint64_t seed, Tracer* tracer) : TimedOp(w, tracer) {
    fl::DigitsMlpSpec spec;
    spec.clients = w.workers;  // one worker thread per client
    spec.train_samples = spec.clients * 60;
    spec.test_samples = 200;
    spec.hidden = {1700};  // ≈ 2.6e5 parameters: ~1 MB per dense frame
    spec.partition = "iid";
    spec.seed = seed;
    fl::Workload wl = fl::make_digits_mlp_workload(spec);
    workers_ = wl.clients.size();

    net::ClusterOptions opt;
    opt.fl = base_options(w, seed);
    opt.fl.local_epochs = 1;
    opt.fl.batch_size = 4;
    opt.fl.learning_rate = core::Schedule::inv_sqrt(0.1);
    opt.fl.min_uploads = 1;
    auto clients = std::move(wl.clients);
    if (tracer != nullptr) clients = trace_clients(std::move(clients), *tracer);
    cluster_ = std::make_unique<net::FlCluster>(std::move(clients), make_filter(0.5, tracer),
                                                wrap_evaluator(wl.evaluator, clock_, tracer),
                                                opt);
    dim_ = wl.param_count;
  }

  OpResult run() override {
    OpResult out;
    net::ClusterResult r = timed(out, [&] { return cluster_->run(); });
    out.dim = dim_;
    out.clients = workers_;
    out.up_bytes = r.uplink_bytes;
    out.down_bytes = r.downlink_bytes;
    out.upload_frames = r.upload_messages;
    out.elimination_frames = r.elimination_messages;
    out.history = std::move(r.sim.history);
    out.final_params = std::move(r.sim.final_params);
    return out;
  }

 private:
  std::size_t dim_ = 0;
  std::size_t workers_ = 0;
  std::unique_ptr<net::FlCluster> cluster_;
};

std::uint64_t sealed_size(const net::Message& msg) {
  std::vector<std::byte> frame = net::encode(msg);
  net::seal_frame(frame);
  return frame.size();
}

}  // namespace

const WorkloadConfig* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t runnable_threads(const WorkloadConfig& w, std::size_t kernel_threads) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::size_t runtime = 1;
  switch (w.runtime) {
    case Runtime::kSimulation:
      // util::ThreadPool(hw) workers plus the caller, which drains too.
      runtime = w.parallel ? hw + 1 : 1;
      break;
    case Runtime::kEngine:
      // Training: the caller plus hw-1 work-stealing workers.  Ingest: the
      // engine thread encoding while the shard threads screen.
      runtime = std::max(w.parallel ? hw : std::size_t{1}, w.shards + 1);
      break;
    case Runtime::kCluster:
      runtime = w.workers + 1;
      break;
  }
  // A kernel pool runs beside whichever thread dispatched into it.
  return runtime * w.lanes + (kernel_threads > 1 ? kernel_threads : 0);
}

std::uint64_t op_seed(std::uint64_t run_seed, std::uint64_t index) {
  // splitmix64 over (run seed, index): distinct, well-mixed per-op seeds.
  std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<PreparedOp> prepare_op(const WorkloadConfig& w, std::uint64_t seed,
                                       Tracer* tracer) {
  switch (w.runtime) {
    case Runtime::kSimulation: return std::make_unique<SimOp>(w, seed, tracer);
    case Runtime::kEngine: return std::make_unique<EngineOp>(w, seed, tracer);
    case Runtime::kCluster: return std::make_unique<ClusterOp>(w, seed, tracer);
  }
  throw std::logic_error("prepare_op: unknown runtime");
}

WireSizes wire_sizes(const std::string& codec, std::size_t dim) {
  const std::vector<float> zeros(dim, 0.0f);
  WireSizes s;
  s.codec_upload = cmfl::codec::make_update_codec(codec, 1)->encode(zeros).wire_bytes();
  net::UpdateUploadMsg up;
  up.update = zeros;
  s.upload_frame = sealed_size(up);
  s.elimination_frame = sealed_size(net::EliminationMsg{});
  net::BroadcastMsg bc;
  bc.global_params = zeros;
  bc.global_update = zeros;
  s.broadcast_frame = sealed_size(bc);
  return s;
}

Checked check_op(const WorkloadConfig& w, const OpResult& r, const WireSizes& sizes) {
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(w.name + ": " + what);
  };
  const std::optional<ToTarget> tt = to_target(r.history, w.target);
  if (!tt) fail("target accuracy not reached within max_iterations");
  if (r.history.back().iteration != tt->rounds || r.target_s < 0.0) {
    fail("run did not stop at the first evaluation at the target");
  }
  if (r.final_params.size() != r.dim) fail("final parameter count differs from the model's");
  for (float v : r.final_params) {
    if (!std::isfinite(v)) fail("non-finite final parameters");
  }
  for (const auto& rec : r.history) {
    if (rec.uploads > rec.participants) {
      fail("round " + std::to_string(rec.iteration) + " uploaded more than its participants");
    }
  }

  Checked c{*tt};
  const auto expect_equal = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      fail(std::string(what) + " bytes " + std::to_string(got) + " != reconciled " +
           std::to_string(want));
    }
  };
  expect_equal("uplink-to-target", tt->up_bytes, r.up_bytes);
  switch (w.runtime) {
    case Runtime::kSimulation:
      // Every upload is one dense payload; every round broadcasts to every
      // client.
      expect_equal("uplink", r.up_bytes, uplink_fixed(tt->uploads, sizes.codec_upload));
      if (tt->participants != tt->rounds * r.clients) fail("a client missed a round");
      c.down_bytes = broadcast_downlink(tt->rounds, r.clients, sizes.broadcast_frame);
      break;
    case Runtime::kEngine:
      // Committed and straggler uploads each carry one sign payload; each
      // invited, available device receives one broadcast.
      expect_equal("uplink", r.up_bytes, uplink_fixed(r.uplink_uploads, sizes.codec_upload));
      c.down_bytes = broadcast_downlink(
          1, r.sched.invited - r.sched.unavailable_invited, sizes.broadcast_frame);
      break;
    case Runtime::kCluster:
      if (r.upload_frames != tt->uploads) fail("upload frames differ from recorded uploads");
      expect_equal("uplink", r.up_bytes,
                   cluster_uplink(r.upload_frames, sizes.upload_frame, r.elimination_frames,
                                  sizes.elimination_frame));
      expect_equal("downlink", r.down_bytes,
                   broadcast_downlink(tt->rounds, r.clients, sizes.broadcast_frame));
      c.down_bytes = r.down_bytes;
      break;
  }
  return c;
}

}  // namespace perfbench
