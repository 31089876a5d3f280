// Dense row-major matrix with the handful of BLAS-like kernels the nn and
// mtl substrates need.  Value type is float; accumulations happen in double
// where it matters for gradient checking.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cmfl::tensor {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix taking ownership of `data` (size must be rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  float& checked_at(std::size_t r, std::size_t c);
  float checked_at(std::size_t r, std::size_t c) const;

  std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<float> flat() noexcept { return data_; }
  std::span<const float> flat() const noexcept { return data_; }

  /// Reshapes to rows × cols, reusing the existing heap buffer whenever its
  /// capacity suffices (the training hot path resizes every workspace to the
  /// same shape each step, so steady-state resizes never allocate).  Element
  /// values are unspecified after a resize — callers must fully overwrite
  /// (or zero()) the matrix before reading it.
  void resize(std::size_t rows, std::size_t cols);

  void fill(float value);
  void zero() { fill(0.0f); }

  Matrix transposed() const;

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b.  Shapes: (m×k) * (k×n) -> (m×n).  Throws on mismatch.
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// out = aᵀ * b.  Shapes: (k×m)ᵀ * (k×n) -> (m×n).
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * bᵀ.  Shapes: (m×k) * (n×k)ᵀ -> (m×n).
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out);

/// Adds `bias` (length cols) to every row of `m`.
void add_row_bias(Matrix& m, std::span<const float> bias);

/// accum += m (shape-checked).
void accumulate(Matrix& accum, const Matrix& m);

/// acc[c] += Σ_r m(r, c), each column accumulated with r strictly
/// increasing — the exact order of the scalar bias-gradient loops this
/// kernel replaces (Dense::backward, Lstm gate biases, and the im2col
/// Conv2d bias gradient via the strided kernels:: form).  `acc` must have
/// m.cols() entries.
void add_col_sums(const Matrix& m, std::span<float> acc);

}  // namespace cmfl::tensor
