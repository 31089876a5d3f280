#include "fl/simulation.h"

#include <algorithm>
#include <stdexcept>

#include "sched/population.h"
#include "sched/round_engine.h"

namespace cmfl::fl {

namespace {

/// A non-owning view of a client the simulation owns.  The population's
/// factory hands these out: Population::restore_states drops its
/// residents on resume, which destroys a handle but not the client.
class ClientHandle final : public FlClient {
 public:
  explicit ClientHandle(FlClient& client) : client_(client) {}

  std::size_t param_count() override { return client_.param_count(); }
  std::size_t local_samples() const override {
    return client_.local_samples();
  }
  void set_params(std::span<const float> params) override {
    client_.set_params(params);
  }
  void get_params(std::span<float> out) override { client_.get_params(out); }
  double train_local(int epochs, std::size_t batch_size, float lr) override {
    return client_.train_local(epochs, batch_size, lr);
  }
  std::uint64_t lifetime_steps() const override {
    return client_.lifetime_steps();
  }
  std::vector<std::uint64_t> mutable_state() const override {
    return client_.mutable_state();
  }
  void restore_mutable_state(std::span<const std::uint64_t> state) override {
    client_.restore_mutable_state(state);
  }

 private:
  FlClient& client_;
};

}  // namespace

std::optional<std::size_t> SimulationResult::rounds_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) return rec.cumulative_rounds;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> SimulationResult::bytes_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) {
      return rec.cumulative_upload_bytes;
    }
  }
  return std::nullopt;
}

FederatedSimulation::FederatedSimulation(
    std::vector<std::unique_ptr<FlClient>> clients,
    std::unique_ptr<core::UpdateFilter> filter, GlobalEvaluator evaluator,
    const SimulationOptions& options)
    : clients_(std::move(clients)),
      capture_client_params_(options.capture_client_params) {
  if (clients_.empty()) {
    throw std::invalid_argument("FederatedSimulation: no clients");
  }
  if (!(0.0 < options.participation && options.participation <= 1.0)) {
    throw std::invalid_argument(
        "FederatedSimulation: participation must be in (0, 1]");
  }
  if (options.schedule.mode != sched::RoundMode::kSync) {
    throw std::invalid_argument(
        "FederatedSimulation: only schedule.mode == kSync runs in-process; "
        "over-selection and buffered-async rounds need sched::RoundEngine");
  }
  dim_ = clients_.front()->param_count();
  for (const auto& c : clients_) {
    if (c->param_count() != dim_) {
      throw std::invalid_argument(
          "FederatedSimulation: clients disagree on parameter count");
    }
  }

  // FedAvg's C is the engine's cohort size; a cohort of every client is
  // full participation.
  const std::size_t n = clients_.size();
  SimulationOptions engine_options = options;
  engine_options.capture_client_params = false;  // finish() captures
  std::size_t& cohort = engine_options.schedule.sample_size;
  if (cohort == 0 && options.participation < 1.0) {
    cohort = std::max<std::size_t>(
        1, static_cast<std::size_t>(options.participation *
                                    static_cast<double>(n)));
  }
  if (cohort >= n) cohort = 0;

  sched::PopulationSpec spec;
  spec.devices = n;
  spec.max_resident = n;  // never evict: every client stays resident
  population_ = std::make_unique<sched::Population>(
      spec, [this](std::uint64_t k) {
        return std::make_unique<ClientHandle>(*clients_[k]);
      });
  engine_ = std::make_unique<sched::RoundEngine>(
      *population_, std::move(filter), std::move(evaluator), engine_options);
}

FederatedSimulation::~FederatedSimulation() = default;

SimulationResult FederatedSimulation::run() {
  return finish(engine_->run().sim);
}

SimulationResult FederatedSimulation::resume(
    const TrainerCheckpoint& checkpoint) {
  return finish(engine_->resume(checkpoint).sim);
}

SimulationResult FederatedSimulation::finish(SimulationResult result) {
  if (capture_client_params_) {
    result.client_params.assign(clients_.size(), std::vector<float>(dim_));
    for (std::size_t k = 0; k < clients_.size(); ++k) {
      clients_[k]->get_params(result.client_params[k]);
    }
  }
  return result;
}

}  // namespace cmfl::fl
