#include "sched/population.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_set>

namespace cmfl::sched {

namespace {

// Salts separating the independent per-device trait streams.
constexpr std::uint64_t kSaltSpeed = 0x73706565;       // "spee"
constexpr std::uint64_t kSaltDuty = 0x64757479;        // "duty"
constexpr std::uint64_t kSaltAvail = 0x61766169;       // "avai"
constexpr std::uint64_t kSaltDropout = 0x64726f70;     // "drop"
constexpr std::uint64_t kSaltJitter = 0x6a697474;      // "jitt"

/// Caller-supplied release seqs are offset into their own ordering domain so
/// they always sort after auto-sequenced releases of the same fresh run
/// (setup probes evict before cohort clients, matching the legacy order).
constexpr std::uint64_t kDeferredSeqBase = 1ULL << 48;

std::uint64_t mix3(std::uint64_t seed, std::uint64_t device,
                   std::uint64_t salt) {
  util::SplitMix64 sm(seed ^ (device * 0x9e3779b97f4a7c15ULL) ^
                      (salt * 0xbf58476d1ce4e5b9ULL));
  sm.next();  // decorrelate nearby (device, salt) pairs
  return sm.next();
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Standard normal from two independent unit hashes (Box–Muller).
double hashed_normal(double u1, double u2) {
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace

void PopulationSpec::validate() const {
  if (devices == 0) {
    throw std::invalid_argument("PopulationSpec: devices must be positive");
  }
  if (!(0.0 < mean_on_fraction && mean_on_fraction <= 1.0)) {
    throw std::invalid_argument(
        "PopulationSpec: mean_on_fraction must lie in (0, 1]");
  }
  if (!(0.0 <= dropout_mid_round && dropout_mid_round < 1.0)) {
    throw std::invalid_argument(
        "PopulationSpec: dropout_mid_round must lie in [0, 1)");
  }
  const auto finite_non_negative = [](double x) {
    return std::isfinite(x) && x >= 0.0;
  };
  if (!finite_non_negative(duty_period_rounds) ||
      !(finite_non_negative(latency_base_s) && latency_base_s > 0.0) ||
      !finite_non_negative(latency_log_sigma) ||
      !finite_non_negative(latency_jitter)) {
    throw std::invalid_argument(
        "PopulationSpec: model knobs must be finite and non-negative "
        "(latency_base_s positive)");
  }
}

Population::Population(const PopulationSpec& spec, ClientFactory factory)
    : spec_(spec), factory_(std::move(factory)) {
  spec_.validate();
  if (!factory_) {
    throw std::invalid_argument("Population: null client factory");
  }
}

double Population::unit_hash(std::uint64_t device, std::uint64_t salt) const {
  return to_unit(mix3(spec_.seed, device, salt));
}

bool Population::available(std::uint64_t device, std::uint64_t round) const {
  if (spec_.mean_on_fraction >= 1.0) return true;
  if (spec_.duty_period_rounds > 0.0) {
    // Device-specific deterministic duty cycle: period in
    // [0.75, 1.25]·duty_period_rounds, device-specific phase, on for
    // mean_on_fraction of each period.
    const double u1 = unit_hash(device, kSaltDuty);
    const double u2 = unit_hash(device, kSaltDuty + 1);
    const auto period = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(
               std::llround(spec_.duty_period_rounds * (0.75 + 0.5 * u1))));
    const auto on_len = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::llround(spec_.mean_on_fraction *
                         static_cast<double>(period))),
        1, period - 1);
    const auto phase = static_cast<std::uint64_t>(
        u2 * static_cast<double>(period));
    return (round + phase) % period < on_len;
  }
  // Independent per-(device, round) churn.
  return to_unit(mix3(spec_.seed, device ^ (round * 0x94d049bb133111ebULL),
                      kSaltAvail)) < spec_.mean_on_fraction;
}

bool Population::drops_mid_round(std::uint64_t device,
                                 std::uint64_t round) const {
  if (spec_.dropout_mid_round <= 0.0) return false;
  return to_unit(mix3(spec_.seed, device ^ (round * 0xd6e8feb86659fd93ULL),
                      kSaltDropout)) < spec_.dropout_mid_round;
}

double Population::speed_factor(std::uint64_t device) const {
  if (spec_.latency_log_sigma <= 0.0) return 1.0;
  const double n = hashed_normal(unit_hash(device, kSaltSpeed),
                                 unit_hash(device, kSaltSpeed + 1));
  return std::exp(spec_.latency_log_sigma * n);
}

double Population::draw_latency(std::uint64_t device,
                                std::uint64_t invite_seq) const {
  double jitter = 1.0;
  if (spec_.latency_jitter > 0.0) {
    const std::uint64_t k = device ^ (invite_seq * 0xda942042e4dd58b5ULL);
    const double n =
        hashed_normal(to_unit(mix3(spec_.seed, k, kSaltJitter)),
                      to_unit(mix3(spec_.seed, k, kSaltJitter + 1)));
    jitter = std::exp(spec_.latency_jitter * n);
  }
  return spec_.latency_base_s * speed_factor(device) * jitter;
}

std::vector<std::uint64_t> Population::sample(
    std::uint64_t round, std::size_t count, Selection selection,
    util::Rng& rng, const std::function<bool(std::uint64_t)>& excluded) const {
  const bool need_available = selection == Selection::kAvailabilityAware;
  const auto eligible = [&](std::uint64_t id) {
    if (excluded && excluded(id)) return false;
    return !need_available || available(id, round);
  };

  std::vector<std::uint64_t> picked;
  if (count == 0) return picked;
  picked.reserve(count);
  std::unordered_set<std::uint64_t> seen;

  // Rejection sampling: cheap while count << devices (the production
  // regime).  A bounded attempt budget guards against a nearly exhausted
  // or nearly all-offline population, after which a deterministic linear
  // scan from a random start collects whatever is left.
  const std::uint64_t budget =
      64 + 16 * static_cast<std::uint64_t>(count);
  for (std::uint64_t attempt = 0;
       attempt < budget && picked.size() < count; ++attempt) {
    const std::uint64_t id = rng.uniform_index(spec_.devices);
    if (seen.contains(id) || !eligible(id)) continue;
    seen.insert(id);
    picked.push_back(id);
  }
  if (picked.size() < count) {
    const std::uint64_t start = rng.uniform_index(spec_.devices);
    for (std::uint64_t i = 0; i < spec_.devices && picked.size() < count;
         ++i) {
      const std::uint64_t id = (start + i) % spec_.devices;
      if (seen.contains(id) || !eligible(id)) continue;
      seen.insert(id);
      picked.push_back(id);
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

fl::FlClient& Population::acquire(std::uint64_t device) {
  if (device >= spec_.devices) {
    throw std::invalid_argument("Population::acquire: device out of range");
  }
  std::vector<std::uint64_t> saved;
  bool has_saved = false;
  {
    std::lock_guard lock(mu_);
    auto it = resident_.find(device);
    if (it != resident_.end()) {
      Resident& r = it->second;
      if (r.in_use) {
        throw std::logic_error("Population::acquire: device already acquired");
      }
      warm_.erase({r.warm_seq, device});
      r.in_use = true;
      return *r.client;
    }
    // Reserve the slot with a placeholder and materialize outside the lock,
    // so concurrent workers overlap factory work (model construction, state
    // restore) instead of serializing on the pool.  A concurrent acquire of
    // the same device sees the in_use placeholder and throws, exactly like
    // a double acquire of a materialized client.
    if (const auto s = saved_state_.find(device); s != saved_state_.end()) {
      saved = std::move(s->second);
      has_saved = true;
      saved_state_.erase(s);
    }
    Resident placeholder;
    placeholder.in_use = true;
    resident_.emplace(device, std::move(placeholder));
    ++materializations_;
    peak_resident_ = std::max(peak_resident_, resident_.size());
  }

  std::unique_ptr<fl::FlClient> client;
  try {
    client = factory_(device);
    if (!client) {
      throw std::runtime_error("Population: factory returned null client");
    }
    if (has_saved) client->restore_mutable_state(saved);
  } catch (...) {
    std::lock_guard lock(mu_);
    if (has_saved) saved_state_[device] = std::move(saved);
    resident_.erase(device);
    --materializations_;
    throw;
  }

  std::lock_guard lock(mu_);
  Resident& r = resident_.find(device)->second;
  r.client = std::move(client);
  return *r.client;
}

void Population::release(std::uint64_t device) {
  std::lock_guard lock(mu_);
  // Auto-sequence: strictly increasing per release, so eviction order is
  // exactly the legacy FIFO release order for single-threaded callers.
  release_locked(device, release_seq_);
  while (warm_.size() > spec_.max_resident) evict_lowest_locked();
}

void Population::release(std::uint64_t device, std::uint64_t seq) {
  if (seq >= kDeferredSeqBase) {
    throw std::invalid_argument("Population::release: seq out of range");
  }
  std::lock_guard lock(mu_);
  release_locked(device, kDeferredSeqBase + seq);
}

void Population::release_locked(std::uint64_t device, std::uint64_t seq) {
  auto it = resident_.find(device);
  if (it == resident_.end() || !it->second.in_use ||
      it->second.client == nullptr) {
    throw std::logic_error("Population::release: device not acquired");
  }
  if (!warm_.emplace(std::pair{seq, device}, device).second) {
    throw std::logic_error("Population::release: duplicate sequence number");
  }
  it->second.in_use = false;
  it->second.warm_seq = seq;
  release_seq_ = std::max(release_seq_, seq) + 1;
}

void Population::trim_warm() {
  std::lock_guard lock(mu_);
  while (warm_.size() > spec_.max_resident) evict_lowest_locked();
}

void Population::evict_lowest_locked() {
  const auto first = warm_.begin();
  const std::uint64_t device = first->second;
  warm_.erase(first);
  auto it = resident_.find(device);
  std::vector<std::uint64_t> state = it->second.client->mutable_state();
  if (!state.empty()) saved_state_[device] = std::move(state);
  resident_.erase(it);
  ++evictions_;
}

std::size_t Population::resident() const {
  std::lock_guard lock(mu_);
  return resident_.size();
}

std::size_t Population::peak_resident() const {
  std::lock_guard lock(mu_);
  return peak_resident_;
}

std::uint64_t Population::materializations() const {
  std::lock_guard lock(mu_);
  return materializations_;
}

std::uint64_t Population::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

util::StateMap Population::states() const {
  std::lock_guard lock(mu_);
  util::StateMap states(saved_state_.begin(), saved_state_.end());
  for (const auto& [id, r] : resident_) {
    if (r.in_use) {
      throw std::logic_error("Population::states: a client is still acquired");
    }
    states[id] = r.client->mutable_state();
  }
  return states;
}

void Population::restore_states(const util::StateMap& states) {
  std::lock_guard lock(mu_);
  for (const auto& [id, r] : resident_) {
    (void)id;
    if (r.in_use) {
      throw std::logic_error(
          "Population::restore_states: a client is still acquired");
    }
  }
  resident_.clear();
  warm_.clear();
  saved_state_ = {states.begin(), states.end()};
}

}  // namespace cmfl::sched
