#include "fl/convex_testbed.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/vector_ops.h"

namespace cmfl::fl {

ConvexTestbed::ConvexTestbed(const ConvexTestbedSpec& spec) : spec_(spec) {
  if (spec.clients == 0 || spec.dim == 0 || spec.local_steps <= 0) {
    throw std::invalid_argument("ConvexTestbed: malformed spec");
  }
  util::Rng rng(spec.seed);
  centers_.assign(spec.clients, std::vector<float>(spec.dim));
  for (std::size_t k = 0; k < spec.clients; ++k) {
    const bool outlier = rng.uniform() < spec.outlier_fraction;
    const double spread =
        outlier ? spec.outlier_spread : spec.center_spread;
    for (auto& c : centers_[k]) {
      c = rng.normal_f(0.0f, static_cast<float>(spread));
    }
  }
  // x* = mean of centers (the unique minimizer of the average quadratic).
  optimum_.assign(spec.dim, 0.0f);
  for (const auto& c : centers_) tensor::axpy(1.0f, c, optimum_);
  tensor::scale(optimum_, 1.0f / static_cast<float>(spec.clients));
  optimum_loss_ = global_loss(optimum_);
}

double ConvexTestbed::global_loss(std::span<const float> x) const {
  if (x.size() != spec_.dim) {
    throw std::invalid_argument("ConvexTestbed::global_loss: dim mismatch");
  }
  double acc = 0.0;
  for (const auto& c : centers_) {
    double sq = 0.0;
    for (std::size_t j = 0; j < spec_.dim; ++j) {
      const double d = static_cast<double>(x[j]) - static_cast<double>(c[j]);
      sq += d * d;
    }
    acc += 0.5 * sq;
  }
  return acc / static_cast<double>(spec_.clients);
}

ConvexClient::ConvexClient(std::vector<float> center, int local_steps,
                           double gradient_noise, util::Rng rng,
                           float start_offset)
    : center_(std::move(center)),
      params_(center_.size(), start_offset),
      local_steps_(local_steps),
      gradient_noise_(gradient_noise),
      rng_(rng) {
  if (center_.empty() || local_steps_ <= 0) {
    throw std::invalid_argument("ConvexClient: malformed spec");
  }
}

void ConvexClient::set_params(std::span<const float> params) {
  if (params.size() != params_.size()) {
    throw std::invalid_argument("ConvexClient::set_params: dim mismatch");
  }
  params_.assign(params.begin(), params.end());
}

void ConvexClient::get_params(std::span<float> out) {
  if (out.size() != params_.size()) {
    throw std::invalid_argument("ConvexClient::get_params: dim mismatch");
  }
  std::copy(params_.begin(), params_.end(), out.begin());
}

double ConvexClient::train_local(int epochs, std::size_t /*batch_size*/,
                                 float lr) {
  const std::size_t d = params_.size();
  const int steps = epochs * local_steps_;
  for (int s = 0; s < steps; ++s) {
    for (std::size_t j = 0; j < d; ++j) {
      const float grad =
          (params_[j] - center_[j]) +
          rng_.normal_f(0.0f, static_cast<float>(gradient_noise_));
      params_[j] -= lr * grad;
    }
    ++lifetime_steps_;
  }
  // Exact final local loss f_k = ½‖x − c_k‖².
  double sq = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff =
        static_cast<double>(params_[j]) - static_cast<double>(center_[j]);
    sq += diff * diff;
  }
  return 0.5 * sq;
}

std::vector<std::uint64_t> ConvexClient::mutable_state() const {
  return util::rng_state_words(rng_);
}

void ConvexClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

std::vector<float> virtual_convex_center(const VirtualConvexSpec& spec,
                                         std::uint64_t device) {
  // Hashed, not stored: an independent stream per device, derived from the
  // spec seed the same way make_convex_workload derives client streams.
  util::Rng rng = util::Rng(spec.seed ^ 0xCE17E55ULL).split(device);
  const bool outlier = rng.uniform() < spec.outlier_fraction;
  const double spread = outlier ? spec.outlier_spread : spec.center_spread;
  std::vector<float> center(spec.dim);
  for (auto& c : center) {
    c = rng.normal_f(0.0f, static_cast<float>(spread));
  }
  return center;
}

VirtualConvexWorkload make_virtual_convex(const VirtualConvexSpec& spec) {
  if (spec.devices == 0 || spec.dim == 0 || spec.local_steps <= 0) {
    throw std::invalid_argument("make_virtual_convex: malformed spec");
  }
  VirtualConvexWorkload w;
  // One streaming pass over the hashed centers fixes the exact optimum and
  // loss decomposition: f(x) = ½‖x − c̄‖² + ½·mean‖c_k − c̄‖², minimized at
  // x* = c̄ with f(x*) = ½·(mean‖c_k‖² − ‖c̄‖²).
  std::vector<double> mean(spec.dim, 0.0);
  double mean_sq = 0.0;
  for (std::uint64_t k = 0; k < spec.devices; ++k) {
    const auto c = virtual_convex_center(spec, k);
    for (std::size_t j = 0; j < spec.dim; ++j) {
      mean[j] += static_cast<double>(c[j]);
      mean_sq += static_cast<double>(c[j]) * static_cast<double>(c[j]);
    }
  }
  const auto n = static_cast<double>(spec.devices);
  for (auto& m : mean) m /= n;
  mean_sq /= n;
  double opt = mean_sq;
  for (const auto m : mean) opt -= m * m;
  w.optimum_loss = 0.5 * opt;
  w.optimum.assign(spec.dim, 0.0f);
  for (std::size_t j = 0; j < spec.dim; ++j) {
    w.optimum[j] = static_cast<float>(mean[j]);
  }

  w.factory = [spec](std::uint64_t device) {
    return std::make_unique<ConvexClient>(
        virtual_convex_center(spec, device), spec.local_steps,
        spec.gradient_noise, util::Rng(spec.seed ^ 0xFEEDFACEULL).split(device),
        static_cast<float>(spec.start_offset));
  };
  const auto mean_copy = mean;
  const auto optimum_loss = w.optimum_loss;
  const auto dim = spec.dim;
  const auto devices = spec.devices;
  w.evaluator = [mean_copy, mean_sq, optimum_loss, dim,
                 devices](std::span<const float> x) {
    if (x.size() != dim) {
      throw std::invalid_argument("virtual convex evaluator: dim mismatch");
    }
    // f(x) = ½(‖x‖² − 2·x·c̄ + mean‖c‖²), exact via the streamed moments.
    double sq = 0.0;
    double dot = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      sq += static_cast<double>(x[j]) * static_cast<double>(x[j]);
      dot += static_cast<double>(x[j]) * mean_copy[j];
    }
    nn::EvalResult eval;
    eval.loss = 0.5 * (sq - 2.0 * dot + mean_sq);
    eval.accuracy = 1.0 / (1.0 + std::fabs(eval.loss - optimum_loss));
    eval.samples = devices;
    return eval;
  };
  return w;
}

ConvexWorkload make_convex_workload(const ConvexTestbedSpec& spec) {
  ConvexWorkload w;
  w.testbed = std::make_shared<ConvexTestbed>(spec);
  util::Rng rng(spec.seed ^ 0xFEEDFACEULL);
  w.clients.reserve(spec.clients);
  for (std::size_t k = 0; k < spec.clients; ++k) {
    w.clients.push_back(std::make_unique<ConvexClient>(
        w.testbed->centers()[k], spec.local_steps, spec.gradient_noise,
        rng.split(k), static_cast<float>(spec.start_offset)));
  }
  auto testbed = w.testbed;
  w.evaluator = [testbed](std::span<const float> x) {
    nn::EvalResult eval;
    eval.loss = testbed->global_loss(x);
    eval.accuracy = 1.0 / (1.0 + std::fabs(eval.loss - testbed->optimum_loss()));
    eval.samples = testbed->centers().size();
    return eval;
  };
  return w;
}

}  // namespace cmfl::fl
