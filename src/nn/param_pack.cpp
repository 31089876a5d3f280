#include "nn/param_pack.h"

#include <algorithm>
#include <stdexcept>

namespace cmfl::nn {

ParamPack::ParamPack(std::vector<std::span<float>> views)
    : views_(std::move(views)) {
  for (const auto& v : views_) total_ += v.size();
}

void ParamPack::copy_to(std::span<float> out) const {
  if (out.size() != total_) {
    throw std::invalid_argument("ParamPack::copy_to: size mismatch");
  }
  std::size_t offset = 0;
  for (const auto& v : views_) {
    std::copy(v.begin(), v.end(), out.begin() + offset);
    offset += v.size();
  }
}

void ParamPack::copy_from(std::span<const float> in) {
  if (in.size() != total_) {
    throw std::invalid_argument("ParamPack::copy_from: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& v : views_) {
    std::copy(in.begin() + offset, in.begin() + offset + v.size(), v.begin());
    offset += v.size();
  }
}

void ParamPack::axpy_from(float alpha, const ParamPack& src) {
  if (src.total_ != total_ || src.views_.size() != views_.size()) {
    throw std::invalid_argument("ParamPack::axpy_from: segmentation mismatch");
  }
  for (std::size_t s = 0; s < views_.size(); ++s) {
    auto& dst = views_[s];
    const auto& from = src.views_[s];
    if (dst.size() != from.size()) {
      throw std::invalid_argument(
          "ParamPack::axpy_from: segmentation mismatch");
    }
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += alpha * from[i];
  }
}

}  // namespace cmfl::nn
