#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace baffle {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (float& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

/// Naive reference GEMM for cross-checking the kernels.
Matrix naive_ab(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Gemm, AbMatchesNaive) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  Matrix out(7, 9);
  gemm_ab(a, b, out);
  expect_matrix_near(out, naive_ab(a, b), 1e-4f);
}

TEST(Gemm, AtbMatchesNaive) {
  Rng rng(2);
  const Matrix a = random_matrix(6, 4, rng);  // aᵀ is 4x6
  const Matrix b = random_matrix(6, 3, rng);
  Matrix out(4, 3);
  gemm_atb(a, b, out);
  // Build aᵀ explicitly.
  Matrix at(4, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  }
  expect_matrix_near(out, naive_ab(at, b), 1e-4f);
}

TEST(Gemm, AbtMatchesNaive) {
  Rng rng(3);
  const Matrix a = random_matrix(5, 4, rng);
  const Matrix b = random_matrix(7, 4, rng);  // bᵀ is 4x7
  Matrix out(5, 7);
  gemm_abt(a, b, out);
  Matrix bt(4, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  }
  expect_matrix_near(out, naive_ab(a, bt), 1e-4f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out(2, 2);
  EXPECT_THROW(gemm_ab(a, b, out), std::invalid_argument);
  Matrix b2(3, 2), out_bad(3, 2);
  EXPECT_THROW(gemm_ab(a, b2, out_bad), std::invalid_argument);
}

TEST(Gemm, IdentityIsNoop) {
  Rng rng(4);
  const Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix out(4, 4);
  gemm_ab(a, eye, out);
  expect_matrix_near(out, a, 1e-6f);
}

TEST(Gemm, NanInputPropagatesDespiteZeroOperand) {
  // A diverged model produces NaN activations; a sparsity shortcut that
  // skips zero A entries would silently mask 0 * NaN terms. All three
  // kernels must let the NaN through.
  Matrix a = Matrix::from_rows(2, 2, {0.0f, 1.0f, 1.0f, 0.0f});
  Matrix b = Matrix::from_rows(2, 2, {NAN, 1.0f, 1.0f, 1.0f});
  Matrix out(2, 2);
  gemm_ab(a, b, out);
  // Row 0 of A is (0, 1): the 0 * NAN term must still poison out(0, 0).
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  Matrix a_nan = Matrix::from_rows(2, 2, {NAN, 0.0f, 0.0f, 1.0f});
  Matrix ones = Matrix::from_rows(2, 2, {1.0f, 1.0f, 1.0f, 1.0f});
  gemm_ab(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  EXPECT_TRUE(std::isnan(out.at(0, 1)));
  gemm_atb(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  gemm_abt(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
}

TEST(Gemm, LargeMultipliesMatchNaive) {
  // Above the parallel/blocking threshold (>= 2^20 MACs) the kernels
  // take the cache-blocked row-parallel path; verify against the naive
  // reference on every transpose configuration.
  Rng rng(7);
  const std::size_t m = 96, k = 128, n = 112;  // 96*128*112 > 2^20
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix out(m, n);
  gemm_ab(a, b, out);
  expect_matrix_near(out, naive_ab(a, b), 5e-3f);

  const Matrix a2 = random_matrix(k, m, rng);  // a2ᵀ is m x k
  Matrix out2(m, n);
  gemm_atb(a2, b, out2);
  Matrix a2t(m, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) a2t.at(j, i) = a2.at(i, j);
  }
  expect_matrix_near(out2, naive_ab(a2t, b), 5e-3f);

  const Matrix b2 = random_matrix(n, k, rng);  // b2ᵀ is k x n
  Matrix out3(m, n);
  gemm_abt(a, b2, out3);
  Matrix b2t(k, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) b2t.at(j, i) = b2.at(i, j);
  }
  expect_matrix_near(out3, naive_ab(a, b2t), 5e-3f);
}

TEST(RowOps, AddRowBias) {
  Matrix m(2, 3, 1.0f);
  const std::vector<float> bias{1.0f, 2.0f, 3.0f};
  add_row_bias(m, bias);
  EXPECT_EQ(m.at(0, 0), 2.0f);
  EXPECT_EQ(m.at(1, 2), 4.0f);
}

TEST(RowOps, AddRowBiasLengthMismatch) {
  Matrix m(2, 3);
  const std::vector<float> bias{1.0f};
  EXPECT_THROW(add_row_bias(m, bias), std::invalid_argument);
}

TEST(RowOps, ColSum) {
  const Matrix m = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  std::vector<float> out(2);
  col_sum(m, out);
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(out[1], 6.0f);
}

TEST(Softmax, RowsSumToOne) {
  Matrix m = Matrix::from_rows(2, 3, {1, 2, 3, -1, 0, 1});
  softmax_rows(m);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (float x : m.row(r)) {
      EXPECT_GT(x, 0.0f);
      total += x;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Matrix m = Matrix::from_rows(1, 2, {1000.0f, 1001.0f});
  softmax_rows(m);
  EXPECT_FALSE(std::isnan(m.at(0, 0)));
  EXPECT_NEAR(m.at(0, 1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-4f);
}

TEST(Softmax, PreservesOrdering) {
  Matrix m = Matrix::from_rows(1, 3, {0.5f, 2.0f, -1.0f});
  softmax_rows(m);
  EXPECT_GT(m.at(0, 1), m.at(0, 0));
  EXPECT_GT(m.at(0, 0), m.at(0, 2));
}

TEST(VectorOps, Axpy) {
  std::vector<float> x{1, 2}, y{10, 20};
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[1], 24.0f);
}

TEST(VectorOps, AxpyLengthMismatch) {
  std::vector<float> x{1}, y{1, 2};
  EXPECT_THROW(axpy(1.0f, x, y), std::invalid_argument);
}

TEST(VectorOps, Scale) {
  std::vector<float> x{2, -4};
  scale(x, 0.5f);
  EXPECT_EQ(x[0], 1.0f);
  EXPECT_EQ(x[1], -2.0f);
}

TEST(VectorOps, DotAndNorms) {
  const std::vector<float> a{3, 4}, b{1, 0};
  EXPECT_EQ(dot(a, b), 3.0f);
  EXPECT_EQ(l2_norm(a), 5.0f);
  EXPECT_EQ(l2_distance(a, b), std::sqrt(4.0f + 16.0f));
}

TEST(VectorOps, CosineSimilarity) {
  const std::vector<float> a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6f);
  const std::vector<float> zero{0, 0};
  EXPECT_EQ(cosine_similarity(a, zero), 0.0f);
}

TEST(VectorOps, SubtractAddLerp) {
  const std::vector<float> a{5, 7}, b{2, 3};
  EXPECT_EQ(subtract(a, b), (std::vector<float>{3, 4}));
  EXPECT_EQ(add(a, b), (std::vector<float>{7, 10}));
  EXPECT_EQ(lerp(a, b, 0.0f), a);
  EXPECT_EQ(lerp(a, b, 1.0f), b);
  const auto mid = lerp(a, b, 0.5f);
  EXPECT_EQ(mid[0], 3.5f);
}

TEST(VectorOps, DotAccumulatesInDouble) {
  // Alternating large +/- values that would lose precision in fp32.
  std::vector<float> a, b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(i % 2 == 0 ? 1e7f : -1e7f);
    b.push_back(1.0f);
  }
  a.push_back(1.0f);
  b.push_back(1.0f);
  EXPECT_NEAR(dot(a, b), 1.0f, 1e-3f);
}

}  // namespace
}  // namespace baffle
