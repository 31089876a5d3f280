#include "tensor/matrix.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tensor/kernels.h"

namespace cmfl::tensor {

namespace {
[[noreturn]] void shape_error(const char* what) {
  throw std::invalid_argument(std::string("Matrix: shape mismatch in ") + what);
}
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: data size " +
                                std::to_string(data_.size()) +
                                " does not match " + std::to_string(rows_) +
                                "x" + std::to_string(cols_));
  }
}

float& Matrix::checked_at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::checked_at");
  return at(r, c);
}

float Matrix::checked_at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::checked_at");
  return at(r, c);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

// The Matrix-level wrappers validate shapes, then dispatch to the blocked
// kernels in kernels.cpp, sharding output rows across the kernel pool when
// the work is large enough (see kernels.h for the determinism contract).

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows() || out.rows() != a.rows() ||
      out.cols() != b.cols()) {
    shape_error("matmul");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  kernels::parallel_rows(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    kernels::gemm_nn(a.flat().data(), b.flat().data(), out.flat().data(), m, k,
                     n, i0, i1);
  });
}

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows() || out.rows() != a.cols() ||
      out.cols() != b.cols()) {
    shape_error("matmul_tn");
  }
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  kernels::parallel_rows(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    kernels::gemm_tn(a.flat().data(), b.flat().data(), out.flat().data(), m, k,
                     n, i0, i1);
  });
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols() || out.rows() != a.rows() ||
      out.cols() != b.rows()) {
    shape_error("matmul_nt");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  kernels::parallel_rows(m, m * k * n, [&](std::size_t i0, std::size_t i1) {
    kernels::gemm_nt(a.flat().data(), b.flat().data(), out.flat().data(), m, k,
                     n, i0, i1);
  });
}

void add_row_bias(Matrix& m, std::span<const float> bias) {
  if (bias.size() != m.cols()) shape_error("add_row_bias");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

void accumulate(Matrix& accum, const Matrix& m) {
  if (!accum.same_shape(m)) shape_error("accumulate");
  auto dst = accum.flat();
  auto src = m.flat();
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

void add_col_sums(const Matrix& m, std::span<float> acc) {
  if (acc.size() != m.cols()) shape_error("add_col_sums");
  kernels::add_col_sums(m.flat().data(), m.rows(), m.cols(), m.cols(), 1, acc);
}

}  // namespace cmfl::tensor
