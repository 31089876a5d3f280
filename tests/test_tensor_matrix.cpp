#include "tensor/matrix.h"

#include <gtest/gtest.h>

#include "tensor/init.h"
#include "util/rng.h"

namespace cmfl::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (float& v : m.flat()) v = rng.uniform_f(-1.0f, 1.0f);
  return m;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, CheckedAtBounds) {
  Matrix m(2, 2);
  EXPECT_THROW(m.checked_at(2, 0), std::out_of_range);
  EXPECT_THROW(m.checked_at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.checked_at(1, 1));
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
}

TEST(Matmul, KnownProduct) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix out(2, 2);
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), std::invalid_argument);
}

TEST(Matmul, VariantsAgreeWithExplicitTranspose) {
  util::Rng rng(5);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix b = random_matrix(4, 5, rng);
  // a^T b via matmul_tn vs transposed() + matmul
  Matrix tn(3, 5);
  matmul_tn(a, b, tn);
  Matrix at = a.transposed();
  Matrix expected(3, 5);
  matmul(at, b, expected);
  for (std::size_t i = 0; i < tn.size(); ++i) {
    EXPECT_NEAR(tn.flat()[i], expected.flat()[i], 1e-5f);
  }
  // a b^T via matmul_nt
  const Matrix c = random_matrix(5, 3, rng);
  Matrix nt(4, 5);
  const Matrix a43 = random_matrix(4, 3, rng);
  matmul_nt(a43, c, nt);
  Matrix ct = c.transposed();
  Matrix expected2(4, 5);
  matmul(a43, ct, expected2);
  for (std::size_t i = 0; i < nt.size(); ++i) {
    EXPECT_NEAR(nt.flat()[i], expected2.flat()[i], 1e-5f);
  }
}

TEST(AddRowBias, AddsToEveryRow) {
  Matrix m(2, 3);
  std::vector<float> bias = {1.0f, 2.0f, 3.0f};
  add_row_bias(m, bias);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(m.at(r, 0), 1.0f);
    EXPECT_FLOAT_EQ(m.at(r, 2), 3.0f);
  }
  std::vector<float> bad = {1.0f};
  EXPECT_THROW(add_row_bias(m, bad), std::invalid_argument);
}

TEST(Accumulate, SumsAndChecksShape) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {10, 20, 30, 40});
  accumulate(a, b);
  EXPECT_FLOAT_EQ(a.at(1, 1), 44.0f);
  Matrix c(2, 3);
  EXPECT_THROW(accumulate(a, c), std::invalid_argument);
}

TEST(Init, XavierBoundsRespected) {
  util::Rng rng(9);
  std::vector<float> w(1000);
  xavier_uniform(w, 10, 10, rng);
  const float bound = std::sqrt(6.0f / 20.0f);
  for (float v : w) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(Init, HeNormalVariance) {
  util::Rng rng(10);
  std::vector<float> w(20000);
  he_normal(w, 50, rng);
  double sq = 0;
  for (float v : w) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(sq / static_cast<double>(w.size()), 2.0 / 50.0, 0.004);
}

TEST(Init, ZeroFanRejected) {
  util::Rng rng(10);
  std::vector<float> w(4);
  EXPECT_THROW(xavier_uniform(w, 0, 0, rng), std::invalid_argument);
  EXPECT_THROW(he_normal(w, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::tensor
