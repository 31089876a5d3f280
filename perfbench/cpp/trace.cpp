#include "trace.h"

#include <chrono>

namespace perfbench {

namespace {

/// Small dense per-thread ids, assigned on a thread's first span.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetParams: return "fl.set_params";
    case Layer::kTrain: return "nn.train_local";
    case Layer::kGetParams: return "fl.get_params";
    case Layer::kDecide: return "core.decide";
    case Layer::kEval: return "fl.eval";
    case Layer::kMaterialize: return "sched.materialize";
  }
  return "unknown";
}

void Tracer::end_round(std::int64_t t) {
  {
    std::lock_guard lock(mu_);
    round_ends_.push_back(t);
  }
  round_.fetch_add(1, std::memory_order_acq_rel);
}

void Tracer::record(Layer layer, std::uint32_t round, std::int64_t begin, std::int64_t end) {
  if (!running_.load(std::memory_order_acquire)) return;
  const std::uint32_t thread = thread_index();
  std::lock_guard lock(mu_);
  spans_.push_back({layer, round, thread, begin, end});
}

void Tracer::observe_decision(std::span<const float> update, std::span<const float> estimate,
                              bool upload) {
  if (!running_.load(std::memory_order_acquire)) return;
  const std::uint32_t r = round();
  std::lock_guard lock(mu_);
  ++decisions_;
  if (!upload) return;
  ++uploads_;
  if (captured_.size() < capture_limit_) captured_.emplace_back(update.begin(), update.end());
  if (r != estimate_round_) {
    estimate_.assign(estimate.begin(), estimate.end());
    estimate_round_ = r;
  }
}

void TracedClient::set_params(std::span<const float> params) {
  ScopedSpan span(tracer_, Layer::kSetParams);
  inner_->set_params(params);
}

void TracedClient::get_params(std::span<float> out) {
  ScopedSpan span(tracer_, Layer::kGetParams);
  inner_->get_params(out);
}

double TracedClient::train_local(int epochs, std::size_t batch_size, float lr) {
  ScopedSpan span(tracer_, Layer::kTrain);
  return inner_->train_local(epochs, batch_size, lr);
}

cmfl::core::FilterDecision TracedFilter::decide(std::span<const float> update,
                                                const cmfl::core::FilterContext& ctx) const {
  cmfl::core::FilterDecision decision;
  {
    ScopedSpan span(tracer_, Layer::kDecide);
    decision = inner_->decide(update, ctx);
  }
  tracer_.observe_decision(update, ctx.estimated_global_update, decision.upload);
  return decision;
}

std::vector<std::unique_ptr<cmfl::fl::FlClient>> trace_clients(
    std::vector<std::unique_ptr<cmfl::fl::FlClient>> clients, Tracer& tracer) {
  for (auto& c : clients) c = std::make_unique<TracedClient>(std::move(c), tracer);
  return clients;
}

cmfl::sched::ClientFactory trace_factory(cmfl::sched::ClientFactory inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer](std::uint64_t device) {
    std::unique_ptr<cmfl::fl::FlClient> client;
    {
      ScopedSpan span(tracer, Layer::kMaterialize);
      client = inner(device);
    }
    return std::unique_ptr<cmfl::fl::FlClient>(
        std::make_unique<TracedClient>(std::move(client), tracer));
  };
}

}  // namespace perfbench
