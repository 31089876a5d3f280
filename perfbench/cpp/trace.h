// Benchmark-side tracing: spans recorded around the calls into each layer,
// from outside the library.  The traced run wraps the runtimes' injectable
// interfaces — fl::FlClient, core::UpdateFilter, the fl::GlobalEvaluator and
// the sched::ClientFactory — in decorators that time every call.  Spans stay
// in memory and are written out once the run ends.
//
// Round attribution: every workload evaluates once per round, so the
// evaluator's return marks the end of a round.  A span takes the number of
// the round in progress when it starts; round r's window runs from the end
// of round r-1 (or from run() for r = 1) to the end of its evaluation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/client.h"
#include "fl/simulation.h"
#include "sched/population.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

/// The decorated layer boundaries.
enum class Layer : std::uint8_t {
  kSetParams,    // fl::FlClient::set_params  (broadcast install)
  kTrain,        // fl::FlClient::train_local (nn/tensor train step)
  kGetParams,    // fl::FlClient::get_params  (update read-back)
  kDecide,       // core::UpdateFilter::decide (relevance check)
  kEval,         // fl::GlobalEvaluator       (commit: evaluation)
  kMaterialize,  // sched::ClientFactory      (lazy client construction)
};
const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kTrain;
  std::uint32_t round = 0;  // shared by every span of one round
  std::uint32_t thread = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  /// Keeps at most `capture_limit` uploaded updates for the replay.
  explicit Tracer(std::size_t capture_limit) : capture_limit_(capture_limit) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Marks the start of run(): round 1's window opens here.  Calls before
  /// it (a runtime's constructor probing a client) are set-up, not rounds,
  /// and are not recorded.
  void start_run(std::int64_t t) {
    run_begin_ = t;
    running_.store(true, std::memory_order_release);
  }
  std::int64_t run_begin() const { return run_begin_; }
  /// Closes the round in progress at time t (called when its evaluation
  /// returns) and opens the next.
  void end_round(std::int64_t t);
  std::uint32_t round() const { return round_.load(std::memory_order_acquire); }

  void record(Layer layer, std::uint32_t round, std::int64_t begin, std::int64_t end);
  /// Counts a filter outcome; keeps the update (and, once per round, the
  /// broadcast estimate it was scored against) for the replay.
  void observe_decision(std::span<const float> update, std::span<const float> estimate,
                        bool upload);

  // Read once the run has finished (no concurrent writers).
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::int64_t>& round_ends() const { return round_ends_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t uploads() const { return uploads_; }
  const std::vector<std::vector<float>>& captured_uploads() const { return captured_; }
  const std::vector<float>& captured_estimate() const { return estimate_; }

 private:
  const std::size_t capture_limit_;
  std::int64_t run_begin_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint32_t> round_{1};

  std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<std::int64_t> round_ends_;
  std::uint64_t decisions_ = 0;
  std::uint64_t uploads_ = 0;
  std::vector<std::vector<float>> captured_;
  std::vector<float> estimate_;
  std::uint32_t estimate_round_ = 0;
};

/// RAII span: records [construction, destruction) under the round in
/// progress at construction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : tracer_(tracer), layer_(layer), round_(tracer.round()), begin_(now_ns()) {}
  ~ScopedSpan() { tracer_.record(layer_, round_, begin_, now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  std::uint32_t round_;
  std::int64_t begin_;
};

/// fl::FlClient decorator: times set_params, train_local and get_params and
/// forwards everything else untouched, so trajectories stay bit-identical.
class TracedClient final : public cmfl::fl::FlClient {
 public:
  TracedClient(std::unique_ptr<cmfl::fl::FlClient> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t param_count() override { return inner_->param_count(); }
  std::size_t local_samples() const override { return inner_->local_samples(); }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override { return inner_->lifetime_steps(); }
  std::vector<std::uint64_t> mutable_state() const override {
    return inner_->mutable_state();
  }
  void restore_mutable_state(std::span<const std::uint64_t> state) override {
    inner_->restore_mutable_state(state);
  }

 private:
  std::unique_ptr<cmfl::fl::FlClient> inner_;
  Tracer& tracer_;
};

/// core::UpdateFilter decorator: times decide() and feeds the tracer's
/// decision counters and replay capture.
class TracedFilter final : public cmfl::core::UpdateFilter {
 public:
  TracedFilter(std::unique_ptr<cmfl::core::UpdateFilter> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  cmfl::core::FilterDecision decide(std::span<const float> update,
                                    const cmfl::core::FilterContext& ctx) const override;

 private:
  std::unique_ptr<cmfl::core::UpdateFilter> inner_;
  Tracer& tracer_;
};

std::vector<std::unique_ptr<cmfl::fl::FlClient>> trace_clients(
    std::vector<std::unique_ptr<cmfl::fl::FlClient>> clients, Tracer& tracer);

/// sched::ClientFactory decorator: times each materialization and returns
/// the client wrapped in a TracedClient.
cmfl::sched::ClientFactory trace_factory(cmfl::sched::ClientFactory inner, Tracer& tracer);

}  // namespace perfbench
