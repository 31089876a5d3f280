// Flattening utilities: a ParamPack is an ordered list of spans over a
// model's parameter (or gradient) storage, with copy-in / copy-out to a
// single contiguous vector.  This flat vector is the "update" currency of
// the whole repository: FL clients ship it, the CMFL core scores it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cmfl::nn {

class ParamPack {
 public:
  ParamPack() = default;
  explicit ParamPack(std::vector<std::span<float>> views);

  std::size_t total_size() const noexcept { return total_; }

  /// Copies all segments, in order, into `out` (size must equal
  /// total_size(); throws std::invalid_argument otherwise).
  void copy_to(std::span<float> out) const;

  /// Copies `in` back into the underlying storage.
  void copy_from(std::span<const float> in);

  /// dst += alpha * src, where src is another pack with the identical
  /// segmentation (e.g. the gradient pack of the same model).
  void axpy_from(float alpha, const ParamPack& src);

 private:
  std::vector<std::span<float>> views_;
  std::size_t total_ = 0;
};

}  // namespace cmfl::nn
