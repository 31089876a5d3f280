#include "tensor/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cmfl::tensor {

namespace {
void check_same_size(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    throw std::invalid_argument(std::string(what) + ": size mismatch (" +
                                std::to_string(a) + " vs " +
                                std::to_string(b) + ")");
  }
}
}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x.size(), y.size(), "axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> x, float alpha) {
  for (float& v : x) v *= alpha;
}

void fill(std::span<float> x, float value) {
  std::fill(x.begin(), x.end(), value);
}

double norm2(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc);
}

void sub(std::span<const float> x, std::span<const float> y,
         std::span<float> z) {
  check_same_size(x.size(), y.size(), "sub");
  check_same_size(x.size(), z.size(), "sub");
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] - y[i];
}

void add(std::span<const float> x, std::span<const float> y,
         std::span<float> z) {
  check_same_size(x.size(), y.size(), "add");
  check_same_size(x.size(), z.size(), "add");
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
}

std::size_t count_sign_matches(std::span<const float> x,
                               std::span<const float> y) {
  check_same_size(x.size(), y.size(), "count_sign_matches");
  std::size_t matches = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    matches += static_cast<std::size_t>(sign(x[i]) == sign(y[i]));
  }
  return matches;
}

}  // namespace cmfl::tensor
