#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "util/random.h"

namespace m2td::linalg {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng->Gaussian();
  }
  return m;
}

Matrix RandomSymmetric(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng->Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

// ----------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, FromData) {
  Matrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Transposed) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t(0, 1), 4.0);
}

TEST(MatrixTest, FrobeniusNormAndRowNorm) {
  Matrix m(2, 2, {3, 4, 0, 0});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.RowNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(m.RowNorm(1), 0.0);
}

TEST(MatrixTest, ScaleAndLeadingColumns) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  m.Scale(2.0);
  EXPECT_EQ(m(1, 2), 12.0);
  Matrix lead = m.LeadingColumns(2);
  EXPECT_EQ(lead.cols(), 2u);
  EXPECT_EQ(lead(1, 1), 10.0);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = Multiply(a, b);
  EXPECT_EQ(c(0, 0), 58.0);
  EXPECT_EQ(c(0, 1), 64.0);
  EXPECT_EQ(c(1, 0), 139.0);
  EXPECT_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposedMultipliesAgree) {
  Rng rng(3);
  Matrix a = RandomMatrix(4, 6, &rng);
  Matrix b = RandomMatrix(4, 5, &rng);
  // A^T B via explicit transpose vs MultiplyTransA.
  Matrix expected = Multiply(a.Transposed(), b);
  Matrix actual = MultiplyTransA(a, b);
  EXPECT_LT(Matrix::MaxAbsDiff(expected, actual), 1e-12);

  Matrix c = RandomMatrix(5, 6, &rng);
  Matrix expected2 = Multiply(a, c.Transposed());
  Matrix actual2 = MultiplyTransB(a, c);
  EXPECT_LT(Matrix::MaxAbsDiff(expected2, actual2), 1e-12);
}

TEST(MatrixTest, LinearCombination) {
  Matrix a(1, 2, {1, 2});
  Matrix b(1, 2, {10, 20});
  Matrix c = LinearCombination(2.0, a, 0.5, b);
  EXPECT_EQ(c(0, 0), 7.0);
  EXPECT_EQ(c(0, 1), 14.0);
}

// ------------------------------------------------------------------ Eigen

TEST(EigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 1.0, 1e-12);
  // Leading eigenvector should be +- e_1.
  EXPECT_NEAR(std::fabs(eig->eigenvectors(1, 0)), 1.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  Matrix a(2, 2, {2, 1, 1, 2});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-12);
}

TEST(EigenTest, ReconstructsRandomSymmetric) {
  Rng rng(21);
  for (std::size_t n : {2u, 5u, 16u}) {
    Matrix a = RandomSymmetric(n, &rng);
    auto eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok());
    // A == V diag(w) V^T.
    Matrix vw = eig->eigenvectors;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) vw(i, j) *= eig->eigenvalues[j];
    }
    Matrix reconstructed = MultiplyTransB(vw, eig->eigenvectors);
    EXPECT_LT(Matrix::MaxAbsDiff(a, reconstructed), 1e-9) << "n=" << n;
    // Eigenvalues sorted decreasing.
    for (std::size_t j = 1; j < n; ++j) {
      EXPECT_GE(eig->eigenvalues[j - 1], eig->eigenvalues[j] - 1e-12);
    }
    // Eigenvectors orthonormal.
    Matrix vtv = MultiplyTransA(eig->eigenvectors, eig->eigenvectors);
    EXPECT_LT(Matrix::MaxAbsDiff(vtv, Matrix::Identity(n)), 1e-9);
  }
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, RejectsNonSymmetric) {
  Matrix a(2, 2, {1, 2, 3, 4});
  EXPECT_FALSE(SymmetricEigen(a).ok());
}

// NaN drops out of a max() and Inf makes the relative tolerance
// infinite, so the symmetry check alone lets a non-finite entry through
// as "converged" identity or NaN factors. Every entry must be checked:
// on and off the diagonal, in one triangle or both, below and above the
// size where the scan runs as a parallel reduce.
TEST(EigenTest, RejectsNonFiniteEntriesWithEitherMethod) {
  const double kBad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  Rng rng(8);
  for (std::size_t n : {1u, 4u, 70u}) {
    const Matrix base = RandomSymmetric(n, &rng);
    struct Placement {
      const char* name;
      std::size_t i, j;
      bool mirrored;
    };
    std::vector<Placement> placements = {{"diagonal", n - 1, n - 1, false}};
    if (n > 1) {
      placements.push_back({"off_diagonal", 0, n - 1, true});
      placements.push_back({"lower_only", n - 1, 0, false});
      placements.push_back({"upper_only", 0, 1, false});
    }
    for (double bad : kBad) {
      for (const Placement& at : placements) {
        Matrix a = base;
        a(at.i, at.j) = bad;
        if (at.mirrored) a(at.j, at.i) = bad;
        for (EigenMethod method :
             {EigenMethod::kJacobi, EigenMethod::kTridiagonalQL}) {
          EigenOptions options;
          options.method = method;
          auto eig = SymmetricEigen(a, options);
          ASSERT_FALSE(eig.ok())
              << "n=" << n << " " << at.name << " " << bad << " "
              << EigenMethodName(method);
          EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);
        }
      }
    }
  }
}

TEST(EigenTest, OneByOneAndEmptyBehave) {
  Matrix a(1, 1, {7.0});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_EQ(eig->eigenvalues[0], 7.0);
  EXPECT_EQ(eig->eigenvectors(0, 0), 1.0);
}

TEST(EigenTest, LeadingEigenvectorsClampRank) {
  Rng rng(2);
  Matrix g = RandomSymmetric(4, &rng);
  auto lead = LeadingEigenvectors(g, 10);
  ASSERT_TRUE(lead.ok());
  EXPECT_EQ(lead->cols(), 4u);
  auto lead2 = LeadingEigenvectors(g, 2);
  ASSERT_TRUE(lead2.ok());
  EXPECT_EQ(lead2->cols(), 2u);
}

// --------------------------------------------------------------------- QR

TEST(QrTest, ReconstructsInput) {
  Rng rng(31);
  for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 4}, {8, 3}, {20, 7}}) {
    Matrix a = RandomMatrix(m, n, &rng);
    auto qr = HouseholderQr(a);
    ASSERT_TRUE(qr.ok());
    Matrix reconstructed = Multiply(qr->q, qr->r);
    EXPECT_LT(Matrix::MaxAbsDiff(a, reconstructed), 1e-10);
    // Q columns orthonormal.
    Matrix qtq = MultiplyTransA(qr->q, qr->q);
    EXPECT_LT(Matrix::MaxAbsDiff(qtq, Matrix::Identity(n)), 1e-10);
    // R upper triangular.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(qr->r(i, j), 0.0);
    }
  }
}

TEST(QrTest, RejectsWideMatrix) {
  EXPECT_FALSE(HouseholderQr(Matrix(2, 5)).ok());
}

TEST(QrTest, OrthonormalizeColumns) {
  Rng rng(8);
  Matrix a = RandomMatrix(10, 4, &rng);
  auto q = OrthonormalizeColumns(a);
  ASSERT_TRUE(q.ok());
  Matrix qtq = MultiplyTransA(*q, *q);
  EXPECT_LT(Matrix::MaxAbsDiff(qtq, Matrix::Identity(4)), 1e-10);
}

// -------------------------------------------------------------------- SVD

TEST(SvdTest, RankOneMatrix) {
  // A = u v^T with |u| = 5, |v| = sqrt(2): sigma_1 = 5 sqrt(2).
  Matrix a(2, 2, {3, 3, 4, 4});
  auto svd = TruncatedSvd(a, 2);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 5.0 * std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(svd->singular_values[1], 0.0, 1e-9);
}

TEST(SvdTest, ReconstructsFullRank) {
  Rng rng(77);
  for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 9}, {9, 5}, {6, 6}}) {
    Matrix a = RandomMatrix(m, n, &rng);
    const std::size_t k = std::min(m, n);
    auto svd = TruncatedSvd(a, k);
    ASSERT_TRUE(svd.ok());
    // A == U diag(s) V^T.
    Matrix us = svd->u;
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < m; ++i) us(i, j) *= svd->singular_values[j];
    }
    Matrix reconstructed = MultiplyTransB(us, svd->v);
    EXPECT_LT(Matrix::MaxAbsDiff(a, reconstructed), 1e-8)
        << m << "x" << n;
  }
}

TEST(SvdTest, TruncationGivesBestRankKApproximation) {
  Rng rng(13);
  Matrix a = RandomMatrix(8, 8, &rng);
  auto svd_full = TruncatedSvd(a, 8);
  ASSERT_TRUE(svd_full.ok());
  auto svd2 = TruncatedSvd(a, 2);
  ASSERT_TRUE(svd2.ok());
  Matrix us = svd2->u;
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < 8; ++i) us(i, j) *= svd2->singular_values[j];
  }
  Matrix approx = MultiplyTransB(us, svd2->v);
  // Eckart-Young: squared error equals the sum of discarded sigma^2.
  double err_sq = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const double d = a(i, j) - approx(i, j);
      err_sq += d * d;
    }
  }
  double expected = 0.0;
  for (std::size_t j = 2; j < 8; ++j) {
    expected += svd_full->singular_values[j] * svd_full->singular_values[j];
  }
  EXPECT_NEAR(err_sq, expected, 1e-6 * std::max(1.0, expected));
}

TEST(SvdTest, LeftSingularVectorsFromGramMatchDirect) {
  Rng rng(5);
  Matrix a = RandomMatrix(6, 40, &rng);
  Matrix gram = MultiplyTransB(a, a);
  auto from_gram = LeftSingularVectorsFromGram(gram, 3);
  auto direct = TruncatedSvd(a, 3);
  ASSERT_TRUE(from_gram.ok());
  ASSERT_TRUE(direct.ok());
  // Compare up to per-column sign.
  for (std::size_t j = 0; j < 3; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      dot += (*from_gram)(i, j) * direct->u(i, j);
    }
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-8) << "column " << j;
  }
}

TEST(SvdTest, EmptyMatrixRejected) {
  EXPECT_FALSE(TruncatedSvd(Matrix(), 1).ok());
}

}  // namespace
}  // namespace m2td::linalg
