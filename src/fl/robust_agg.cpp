#include "fl/robust_agg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels.h"
#include "tensor/vector_ops.h"

namespace cmfl::fl {

namespace {

/// Median of a scratch vector (modifies it).  n >= 1.  For even n this is
/// the lower median — cheaper than averaging and just as robust here.
template <typename T>
T median_in_place(std::vector<T>& v) {
  const std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

double update_l2_norm(std::span<const float> v) {
  double sq = 0.0;
  for (const float x : v) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

bool update_all_finite(std::span<const float> v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string aggregation_name(Aggregation rule) {
  switch (rule) {
    case Aggregation::kUniformMean: return "mean";
    case Aggregation::kSampleWeighted: return "weighted";
    case Aggregation::kMedian: return "median";
    case Aggregation::kTrimmedMean: return "trimmed";
    case Aggregation::kNormClippedMean: return "clipped";
  }
  return "unknown";
}

std::vector<float> clipped_mean_coefficients(std::span<const double> norms,
                                             const RobustAggOptions& options) {
  if (norms.empty()) {
    throw std::invalid_argument("clipped_mean_coefficients: no norms");
  }
  const std::size_t n = norms.size();
  double radius = options.clip_norm;
  if (radius <= 0.0) {
    std::vector<double> scratch(norms.begin(), norms.end());
    radius = median_in_place(scratch);
  }
  std::vector<float> coeff(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale =
        (radius > 0.0 && norms[i] > radius) ? radius / norms[i] : 1.0;
    coeff[i] = static_cast<float>(scale / static_cast<double>(n));
  }
  return coeff;
}

void aggregate_updates_range(Aggregation rule,
                             std::span<const std::span<const float>> updates,
                             std::span<const float> weights,
                             const RobustAggOptions& options,
                             std::span<const double> norms, std::span<float> out,
                             std::size_t lo, std::size_t hi) {
  if (updates.empty()) {
    throw std::invalid_argument("aggregate_updates: no updates");
  }
  const std::size_t dim = out.size();
  for (const auto& u : updates) {
    if (u.size() != dim) {
      throw std::invalid_argument("aggregate_updates: update size mismatch");
    }
  }
  if (lo > hi || hi > dim) {
    throw std::invalid_argument("aggregate_updates_range: bad range");
  }
  const std::size_t n = updates.size();

  switch (rule) {
    case Aggregation::kUniformMean:
      tensor::kernels::scaled_sum_range(updates, 1.0f / static_cast<float>(n),
                                        out, lo, hi);
      return;

    case Aggregation::kSampleWeighted:
      if (weights.size() != n) {
        throw std::invalid_argument(
            "aggregate_updates: weighted rule needs one weight per update");
      }
      tensor::kernels::weighted_sum_range(updates, weights, out, lo, hi);
      return;

    case Aggregation::kMedian: {
      std::vector<float> column(n);
      for (std::size_t j = lo; j < hi; ++j) {
        for (std::size_t i = 0; i < n; ++i) column[i] = updates[i][j];
        out[j] = median_in_place(column);
        column.resize(n);
      }
      return;
    }

    case Aggregation::kTrimmedMean: {
      if (!(0.0 <= options.trim_fraction && options.trim_fraction < 0.5)) {
        throw std::invalid_argument(
            "aggregate_updates: trim_fraction must lie in [0, 0.5)");
      }
      // Trim k from each end, keeping at least one survivor.
      std::size_t k = static_cast<std::size_t>(
          options.trim_fraction * static_cast<double>(n));
      if (2 * k >= n) k = (n - 1) / 2;
      const std::size_t kept = n - 2 * k;
      std::vector<float> column(n);
      for (std::size_t j = lo; j < hi; ++j) {
        for (std::size_t i = 0; i < n; ++i) column[i] = updates[i][j];
        std::sort(column.begin(), column.end());
        double sum = 0.0;
        for (std::size_t i = k; i < n - k; ++i) {
          sum += static_cast<double>(column[i]);
        }
        out[j] = static_cast<float>(sum / static_cast<double>(kept));
      }
      return;
    }

    case Aggregation::kNormClippedMean: {
      if (norms.size() != n) {
        throw std::invalid_argument(
            "aggregate_updates_range: clipped rule needs one full-vector "
            "norm per update");
      }
      const auto coeff = clipped_mean_coefficients(norms, options);
      std::fill(out.begin() + static_cast<std::ptrdiff_t>(lo),
                out.begin() + static_cast<std::ptrdiff_t>(hi), 0.0f);
      const std::size_t len = hi - lo;
      auto slice = out.subspan(lo, len);
      for (std::size_t i = 0; i < n; ++i) {
        // axpy is a plain element-wise loop, so the subrange call matches
        // the same elements of the legacy full-vector apply.
        tensor::axpy(coeff[i], updates[i].subspan(lo, len), slice);
      }
      return;
    }
  }
  throw std::invalid_argument("aggregate_updates: unknown rule");
}

void aggregate_updates(Aggregation rule,
                       std::span<const std::span<const float>> updates,
                       std::span<const float> weights,
                       const RobustAggOptions& options, std::span<float> out) {
  std::vector<double> norms;
  if (rule == Aggregation::kNormClippedMean) {
    norms.reserve(updates.size());
    for (const auto& u : updates) norms.push_back(update_l2_norm(u));
  }
  aggregate_updates_range(rule, updates, weights, options, norms, out, 0,
                          out.size());
}

std::size_t ValidationReport::quarantined_count() const noexcept {
  std::size_t count = 0;
  for (const auto q : quarantined) count += q != 0;
  return count;
}

UpdateValidator::UpdateValidator(std::size_t num_clients,
                                 const ValidationPolicy& policy)
    : policy_(policy) {
  if (!(std::isfinite(policy.max_norm) && policy.max_norm >= 0.0) ||
      !(std::isfinite(policy.norm_multiple) && policy.norm_multiple >= 0.0)) {
    throw std::invalid_argument(
        "UpdateValidator: norm bounds must be finite and non-negative");
  }
  report_.strikes.assign(num_clients, 0);
  report_.quarantined.assign(num_clients, 0);
}

bool UpdateValidator::quarantined(std::size_t client) const {
  return client < report_.quarantined.size() &&
         report_.quarantined[client] != 0;
}

std::vector<Verdict> UpdateValidator::screen_round(
    std::span<const std::size_t> clients,
    std::span<const std::span<const float>> updates) {
  if (clients.size() != updates.size()) {
    throw std::invalid_argument("UpdateValidator: clients/updates mismatch");
  }
  // The span overload is the precomputed overload applied to scalars scanned
  // here — one code path, so sharded and serial screening cannot diverge.
  std::vector<UploadScalars> pre(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    pre[i].finite = update_all_finite(updates[i]);
    pre[i].norm = update_l2_norm(updates[i]);
  }
  return screen_round(clients, pre);
}

std::vector<Verdict> UpdateValidator::screen_round(
    std::span<const std::size_t> clients,
    std::span<const UploadScalars> pre) {
  if (clients.size() != pre.size()) {
    throw std::invalid_argument("UpdateValidator: clients/scalars mismatch");
  }
  const std::size_t n = pre.size();
  std::vector<Verdict> verdicts(n, Verdict::kAccept);

  // Pass 1: structural checks, and norms of the structurally sound updates
  // (the round median must not be skewed by garbage values).
  std::vector<double> norms(n, 0.0);
  std::vector<double> finite_norms;
  finite_norms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = clients[i];
    if (k >= report_.strikes.size()) {
      throw std::invalid_argument("UpdateValidator: client id out of range");
    }
    if (report_.quarantined[k]) {
      verdicts[i] = Verdict::kQuarantined;
      continue;
    }
    if (policy_.reject_nonfinite && !pre[i].finite) {
      verdicts[i] = Verdict::kNonFinite;
      continue;
    }
    norms[i] = pre[i].norm;
    if (policy_.max_norm > 0.0 && norms[i] > policy_.max_norm) {
      verdicts[i] = Verdict::kNormExploded;
      continue;
    }
    finite_norms.push_back(norms[i]);
  }

  // Pass 2: relative norm rule against this round's median.
  if (policy_.norm_multiple > 0.0 && finite_norms.size() >= 3) {
    const double med = median_in_place(finite_norms);
    if (med > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (verdicts[i] == Verdict::kAccept &&
            norms[i] > policy_.norm_multiple * med) {
          verdicts[i] = Verdict::kNormExploded;
        }
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = clients[i];
    switch (verdicts[i]) {
      case Verdict::kAccept:
        continue;
      case Verdict::kQuarantined:
        ++report_.discarded_quarantined;
        continue;
      case Verdict::kNonFinite:
        ++report_.rejected_nonfinite;
        break;
      case Verdict::kNormExploded:
        ++report_.rejected_norm;
        break;
    }
    ++report_.strikes[k];
    if (policy_.quarantine_after > 0 &&
        report_.strikes[k] >= policy_.quarantine_after) {
      report_.quarantined[k] = 1;
    }
  }
  return verdicts;
}

void UpdateValidator::restore(const ValidationReport& report) {
  if (report.strikes.size() != report_.strikes.size() ||
      report.quarantined.size() != report_.quarantined.size()) {
    throw std::invalid_argument("UpdateValidator: restore size mismatch");
  }
  report_ = report;
}

}  // namespace cmfl::fl
