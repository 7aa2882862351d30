// Edge cases for the linear-algebra layer: degenerate spectra,
// rank-deficient inputs, zero matrices, extreme scales.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg/kron.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace m2td::linalg {
namespace {

TEST(EigenEdgeTest, RepeatedEigenvaluesStillOrthonormal) {
  // 3x3 identity scaled: triple eigenvalue.
  Matrix a = Matrix::Identity(3);
  a.Scale(2.5);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (double w : eig->eigenvalues) EXPECT_NEAR(w, 2.5, 1e-12);
  Matrix vtv = MultiplyTransA(eig->eigenvectors, eig->eigenvectors);
  EXPECT_LT(Matrix::MaxAbsDiff(vtv, Matrix::Identity(3)), 1e-10);
}

TEST(EigenEdgeTest, BlockDegenerateSpectrum) {
  // Two equal eigenvalues and one distinct.
  Matrix a(3, 3);
  a(0, 0) = 4.0;
  a(1, 1) = 4.0;
  a(2, 2) = 1.0;
  a(0, 1) = a(1, 0) = 0.0;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 4.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 4.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 1.0, 1e-12);
}

TEST(EigenEdgeTest, ZeroMatrix) {
  auto eig = SymmetricEigen(Matrix(4, 4));
  ASSERT_TRUE(eig.ok());
  for (double w : eig->eigenvalues) EXPECT_EQ(w, 0.0);
  // Eigenvectors still orthonormal (identity basis).
  Matrix vtv = MultiplyTransA(eig->eigenvectors, eig->eigenvectors);
  EXPECT_LT(Matrix::MaxAbsDiff(vtv, Matrix::Identity(4)), 1e-12);
}

TEST(EigenEdgeTest, NegativeDefiniteSortedDescending) {
  Matrix a(2, 2);
  a(0, 0) = -3.0;
  a(1, 1) = -1.0;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], -3.0, 1e-12);
}

TEST(EigenEdgeTest, ExtremeScalesConverge) {
  Rng rng(4);
  for (double scale : {1e-150, 1e-8, 1e8, 1e120}) {
    Matrix a(5, 5);
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = i; j < 5; ++j) {
        a(i, j) = a(j, i) = rng.Gaussian() * scale;
      }
    }
    auto eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok()) << "scale " << scale;
    // Reconstruction within relative tolerance.
    Matrix vw = eig->eigenvectors;
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t i = 0; i < 5; ++i) vw(i, j) *= eig->eigenvalues[j];
    }
    Matrix reconstructed = MultiplyTransB(vw, eig->eigenvectors);
    EXPECT_LT(Matrix::MaxAbsDiff(a, reconstructed), 1e-9 * scale)
        << "scale " << scale;
  }
}

TEST(EigenEdgeTest, NonConvergenceIsSurfacedNotFatal) {
  // A dense random symmetric matrix cannot be diagonalized to 1e-15
  // relative off-diagonal norm in a single Jacobi sweep, so this forces
  // the non-convergence path deterministically.
  obs::SetMetricsEnabled(true);
  obs::GetCounter("linalg.eigen.nonconverged").Reset();
  Rng rng(11);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.Gaussian();
    }
  }
  EigenOptions options;
  options.method = EigenMethod::kJacobi;
  options.tolerance = 1e-15;
  options.max_sweeps = 1;
  auto eig = SymmetricEigen(a, options);
  ASSERT_TRUE(eig.ok());  // best-effort result, not an error
  EXPECT_FALSE(eig->converged);
  EXPECT_EQ(eig->sweeps, 1);
  EXPECT_EQ(obs::GetCounter("linalg.eigen.nonconverged").value(), 1u);
  // The partial result is still a valid orthonormal basis.
  Matrix vtv = MultiplyTransA(eig->eigenvectors, eig->eigenvectors);
  EXPECT_LT(Matrix::MaxAbsDiff(vtv, Matrix::Identity(n)), 1e-10);
  obs::SetMetricsEnabled(false);
}

TEST(QrEdgeTest, RankDeficientInputStillOrthonormalQ) {
  // Second column is a multiple of the first.
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  Matrix reconstructed = Multiply(qr->q, qr->r);
  EXPECT_LT(Matrix::MaxAbsDiff(a, reconstructed), 1e-10);
  // R's trailing diagonal entry collapses to ~0.
  EXPECT_NEAR(qr->r(1, 1), 0.0, 1e-10);
}

TEST(QrEdgeTest, ZeroMatrix) {
  auto qr = HouseholderQr(Matrix(3, 2));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->r.FrobeniusNorm(), 0.0);
}

TEST(QrEdgeTest, SingleColumn) {
  Matrix a(3, 1, {3.0, 0.0, 4.0});
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_NEAR(std::fabs(qr->r(0, 0)), 5.0, 1e-12);
  EXPECT_NEAR(qr->q.FrobeniusNorm(), 1.0, 1e-12);
}

TEST(SvdEdgeTest, ZeroMatrixSingularValuesZero) {
  auto svd = TruncatedSvd(Matrix(3, 5), 3);
  ASSERT_TRUE(svd.ok());
  for (double s : svd->singular_values) EXPECT_EQ(s, 0.0);
}

TEST(SvdEdgeTest, VectorShapedInputs) {
  // 1 x n and n x 1 matrices.
  Matrix row(1, 4, {1, 2, 2, 4});
  auto svd_row = TruncatedSvd(row, 1);
  ASSERT_TRUE(svd_row.ok());
  EXPECT_NEAR(svd_row->singular_values[0], 5.0, 1e-12);
  Matrix col(4, 1, {1, 2, 2, 4});
  auto svd_col = TruncatedSvd(col, 1);
  ASSERT_TRUE(svd_col.ok());
  EXPECT_NEAR(svd_col->singular_values[0], 5.0, 1e-12);
}

TEST(KronEdgeTest, IdentityKroneckerIdentity) {
  Matrix k = KroneckerProduct(Matrix::Identity(2), Matrix::Identity(3));
  EXPECT_LT(Matrix::MaxAbsDiff(k, Matrix::Identity(6)), 1e-15);
}

TEST(KronEdgeTest, MixedProductProperty) {
  // (A (x) B)(C (x) D) == (AC) (x) (BD).
  Rng rng(8);
  auto random = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.Gaussian();
    }
    return m;
  };
  Matrix a = random(2, 3), b = random(2, 2);
  Matrix c = random(3, 2), d = random(2, 3);
  Matrix lhs = Multiply(KroneckerProduct(a, b), KroneckerProduct(c, d));
  Matrix rhs = KroneckerProduct(Multiply(a, c), Multiply(b, d));
  EXPECT_LT(Matrix::MaxAbsDiff(lhs, rhs), 1e-10);
}

TEST(PinvEdgeTest, ZeroMatrixPinvIsZero) {
  auto pinv = SymmetricPseudoInverse(Matrix(3, 3));
  ASSERT_TRUE(pinv.ok());
  EXPECT_EQ(pinv->FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace m2td::linalg
