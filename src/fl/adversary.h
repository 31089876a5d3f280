// Seeded, deterministic Byzantine client wrappers.
//
// A ByzantineClient decorates any FlClient and tampers with the update the
// server will reconstruct (trained params − broadcast params), leaving the
// FlClient contract intact — so the same wrapper plugs into the in-process
// FederatedSimulation and the net/ cluster workers without either knowing
// adversaries exist.  Attacks cover the standard Byzantine menagerie:
//
//   * sign-flip       u' = −u             (pushes the model away from x*)
//   * scale           u' = λ·u            (magnitude attack, λ >> 1)
//   * garbage         u' = random noise with NaN/±inf coordinates mixed in
//   * free-rider      u' = 0, no local compute spent
//   * label-flip      trains by gradient *ascent* on the local loss — the
//                     strongest label-poisoning proxy expressible through
//                     the FlClient interface, which sees parameters, not
//                     labels
//
// Every stochastic choice flows through a per-client util::Rng derived from
// (spec.seed, client_id), so an attacked run is exactly reproducible; the
// attack RNG is part of mutable_state() and therefore survives
// checkpoint/resume bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/client.h"
#include "util/rng.h"

namespace cmfl::fl {

enum class Attack {
  kNone,
  kSignFlip,
  kScale,
  kGarbage,
  kFreeRider,
  kLabelFlip,
};

/// "none" | "signflip" | "scale" | "garbage" | "freerider" | "labelflip".
std::string attack_name(Attack attack);

struct AdversarySpec {
  Attack attack = Attack::kNone;
  /// λ for kScale.
  double scale = 10.0;
  /// kGarbage: noise stddev, and the expected count of NaN/±inf
  /// coordinates injected per update.
  double garbage_stddev = 10.0;
  double garbage_nonfinite = 4.0;
  /// Base seed; each wrapped client derives an independent stream from it.
  std::uint64_t seed = 7;
};

class ByzantineClient final : public FlClient {
 public:
  ByzantineClient(std::unique_ptr<FlClient> inner, const AdversarySpec& spec,
                  std::uint64_t client_id);

  std::size_t param_count() override { return inner_->param_count(); }
  std::size_t local_samples() const override {
    return inner_->local_samples();
  }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override {
    return inner_->lifetime_steps();
  }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  std::unique_ptr<FlClient> inner_;
  AdversarySpec spec_;
  util::Rng rng_;
  std::vector<float> broadcast_;  // last installed global params
  /// Attacks are defined on the update relative to the last broadcast;
  /// until one arrives, get_params() reports honestly.  Not part of
  /// mutable_state(): every get_params() after a resume is preceded by a
  /// broadcast, so the flag is always true when it matters.
  bool saw_broadcast_ = false;
};

/// Wraps the first ceil(fraction·n) clients in ByzantineClient decorators
/// (deterministic choice — attacker identity is part of the scenario, not
/// sampled) and returns how many were wrapped.  fraction in [0, 1].
std::size_t apply_adversaries(
    std::vector<std::unique_ptr<FlClient>>& clients,
    const AdversarySpec& spec, double fraction);

}  // namespace cmfl::fl
