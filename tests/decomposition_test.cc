// Tests for the extended decomposition suite: HOOI (Tucker-ALS), CP-ALS
// with sparse MTTKRP, and the Kronecker/Khatri-Rao/randomized-SVD support
// kernels.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kron.h"
#include "tensor/cp.h"
#include "tensor/hooi.h"
#include "tensor/matricize.h"
#include "tensor/ttm.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td {
namespace {

using linalg::Matrix;
using tensor::DenseTensor;
using tensor::SparseTensor;

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng->Gaussian();
  }
  return m;
}

SparseTensor RandomSparse(const std::vector<std::uint64_t>& shape,
                          std::uint64_t nnz, Rng* rng) {
  SparseTensor x(shape);
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      idx[m] = static_cast<std::uint32_t>(rng->UniformInt(shape[m]));
    }
    x.AppendEntry(idx, rng->Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

double Fit(const DenseTensor& x, const DenseTensor& approx) {
  const double norm = x.FrobeniusNorm();
  if (norm == 0.0) return 1.0;
  return 1.0 - DenseTensor::FrobeniusDistance(x, approx) / norm;
}

// ------------------------------------------------------------------- Kron

TEST(KronTest, KroneckerKnownValues) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {0, 1, 1, 0});
  Matrix k = linalg::KroneckerProduct(a, b);
  ASSERT_EQ(k.rows(), 4u);
  ASSERT_EQ(k.cols(), 4u);
  EXPECT_EQ(k(0, 1), 1.0);   // a(0,0)*b(0,1)
  EXPECT_EQ(k(1, 0), 1.0);   // a(0,0)*b(1,0)
  EXPECT_EQ(k(3, 2), 4.0);   // a(1,1)*b(1,0)
  EXPECT_EQ(k(2, 2), 0.0);   // a(1,1)*b(0,0)
}

TEST(KronTest, KhatriRaoIsColumnwiseKronecker) {
  Rng rng(1);
  Matrix a = RandomMatrix(3, 4, &rng);
  Matrix b = RandomMatrix(2, 4, &rng);
  auto kr = linalg::KhatriRaoProduct(a, b);
  ASSERT_TRUE(kr.ok());
  ASSERT_EQ(kr->rows(), 6u);
  ASSERT_EQ(kr->cols(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t ia = 0; ia < 3; ++ia) {
      for (std::size_t ib = 0; ib < 2; ++ib) {
        EXPECT_DOUBLE_EQ((*kr)(ia * 2 + ib, j), a(ia, j) * b(ib, j));
      }
    }
  }
}

TEST(KronTest, KhatriRaoColumnMismatchRejected) {
  EXPECT_FALSE(linalg::KhatriRaoProduct(Matrix(2, 3), Matrix(2, 4)).ok());
}

TEST(KronTest, HadamardProduct) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  Matrix h = linalg::HadamardProduct(a, b);
  EXPECT_EQ(h(0, 0), 5.0);
  EXPECT_EQ(h(1, 1), 32.0);
}

TEST(KronTest, SymmetricPseudoInverse) {
  // Rank-deficient PSD matrix: pinv must satisfy A pinv(A) A == A.
  Matrix u(3, 1, {1, 2, 2});
  Matrix a = linalg::MultiplyTransB(u, u);  // rank 1
  auto pinv = linalg::SymmetricPseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  Matrix apa = linalg::Multiply(linalg::Multiply(a, *pinv), a);
  EXPECT_LT(Matrix::MaxAbsDiff(apa, a), 1e-9);
  // Full-rank case: pinv == inverse.
  Matrix b(2, 2, {2, 0, 0, 4});
  auto binv = linalg::SymmetricPseudoInverse(b);
  ASSERT_TRUE(binv.ok());
  EXPECT_NEAR((*binv)(0, 0), 0.5, 1e-12);
  EXPECT_NEAR((*binv)(1, 1), 0.25, 1e-12);
}

// ------------------------------------------------------------------- HOOI

TEST(HooiTest, FitNeverBelowHosvd) {
  Rng rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    SparseTensor x = RandomSparse({6, 6, 6}, 80, &rng);
    const std::vector<std::uint64_t> ranks = {3, 3, 3};
    auto hosvd = tensor::HosvdSparse(x, ranks);
    ASSERT_TRUE(hosvd.ok());
    tensor::HooiInfo info;
    auto hooi = tensor::HooiSparse(x, ranks, {}, &info);
    ASSERT_TRUE(hooi.ok());

    const DenseTensor dense = x.ToDense();
    auto r_hosvd = tensor::Reconstruct(*hosvd);
    auto r_hooi = tensor::Reconstruct(*hooi);
    ASSERT_TRUE(r_hosvd.ok() && r_hooi.ok());
    EXPECT_GE(Fit(dense, *r_hooi), Fit(dense, *r_hosvd) - 1e-9)
        << "trial " << trial;
    EXPECT_GE(info.iterations, 1);
  }
}

TEST(HooiTest, ExactLowRankTensorConvergesToPerfectFit) {
  Rng rng(13);
  DenseTensor core({2, 2, 2});
  for (std::uint64_t i = 0; i < core.NumElements(); ++i) {
    core.flat(i) = rng.Gaussian();
  }
  std::vector<Matrix> factors;
  for (int m = 0; m < 3; ++m) factors.push_back(RandomMatrix(7, 2, &rng));
  auto x = tensor::ExpandCore(core, factors);
  ASSERT_TRUE(x.ok());
  tensor::HooiInfo info;
  auto hooi = tensor::HooiDense(*x, {2, 2, 2}, {}, &info);
  ASSERT_TRUE(hooi.ok());
  auto reconstructed = tensor::Reconstruct(*hooi);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_NEAR(Fit(*x, *reconstructed), 1.0, 1e-9);
  EXPECT_NEAR(info.fit, 1.0, 1e-9);
}

TEST(HooiTest, ReportsConvergence) {
  Rng rng(17);
  SparseTensor x = RandomSparse({5, 5, 5}, 40, &rng);
  tensor::HooiInfo info;
  tensor::HooiOptions options;
  options.max_iterations = 50;
  auto hooi = tensor::HooiSparse(x, {2, 2, 2}, options, &info);
  ASSERT_TRUE(hooi.ok());
  EXPECT_TRUE(info.converged);
  EXPECT_LT(info.iterations, 50);
}

TEST(HooiTest, Validation) {
  SparseTensor x({3, 3});
  x.SortAndCoalesce();
  EXPECT_FALSE(tensor::HooiSparse(x, {2}).ok());
  EXPECT_FALSE(tensor::HooiSparse(x, {0, 2}).ok());
  tensor::HooiOptions bad;
  bad.max_iterations = 0;
  EXPECT_FALSE(tensor::HooiSparse(x, {2, 2}, bad).ok());
  SparseTensor uncoalesced({3, 3});
  uncoalesced.AppendEntry({0, 0}, 1.0);
  EXPECT_FALSE(tensor::HooiSparse(uncoalesced, {2, 2}).ok());
}

// --------------------------------------------------------------------- CP

TEST(CpTest, MttkrpMatchesKhatriRaoOracle) {
  Rng rng(19);
  SparseTensor x = RandomSparse({4, 3, 5}, 30, &rng);
  std::vector<Matrix> factors = {RandomMatrix(4, 2, &rng),
                                 RandomMatrix(3, 2, &rng),
                                 RandomMatrix(5, 2, &rng)};
  for (std::size_t mode = 0; mode < 3; ++mode) {
    auto fast = tensor::Mttkrp(x, factors, mode);
    ASSERT_TRUE(fast.ok());
    // Oracle: X_(mode) * KhatriRao of the other factors in increasing mode
    // order (first listed mode is the slow index, matching
    // MatricizationColumns).
    auto unfolded = tensor::Matricize(x.ToDense(), mode);
    ASSERT_TRUE(unfolded.ok());
    std::vector<const Matrix*> others;
    for (std::size_t m = 0; m < 3; ++m) {
      if (m != mode) others.push_back(&factors[m]);
    }
    auto kr = linalg::KhatriRaoProduct(*others[0], *others[1]);
    ASSERT_TRUE(kr.ok());
    Matrix oracle = linalg::Multiply(*unfolded, *kr);
    EXPECT_LT(Matrix::MaxAbsDiff(*fast, oracle), 1e-10) << "mode " << mode;
  }
}

TEST(CpTest, RankOneTensorRecoveredExactly) {
  // X = outer(u, v, w): CP at rank 1 must reach fit ~1.
  Rng rng(23);
  std::vector<double> u(5), v(4), w(6);
  for (double& e : u) e = rng.UniformDouble(0.5, 2.0);
  for (double& e : v) e = rng.UniformDouble(0.5, 2.0);
  for (double& e : w) e = rng.UniformDouble(0.5, 2.0);
  SparseTensor x({5, 4, 6});
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      for (std::uint32_t l = 0; l < 6; ++l) {
        x.AppendEntry({i, j, l}, u[i] * v[j] * w[l]);
      }
    }
  }
  x.SortAndCoalesce();
  tensor::CpInfo info;
  auto cp = tensor::CpAlsSparse(x, 1, {}, &info);
  ASSERT_TRUE(cp.ok());
  EXPECT_NEAR(info.fit, 1.0, 1e-6);
  auto reconstructed = tensor::CpReconstruct(*cp, x.shape());
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_NEAR(Fit(x.ToDense(), *reconstructed), 1.0, 1e-6);
}

TEST(CpTest, FitImprovesWithRank) {
  Rng rng(29);
  SparseTensor x = RandomSparse({6, 6, 6}, 100, &rng);
  double last_fit = -2.0;
  for (std::uint64_t rank : {1, 3, 6}) {
    tensor::CpInfo info;
    tensor::CpOptions options;
    options.max_iterations = 60;
    auto cp = tensor::CpAlsSparse(x, rank, options, &info);
    ASSERT_TRUE(cp.ok());
    EXPECT_GE(info.fit, last_fit - 0.02) << "rank " << rank;
    last_fit = info.fit;
  }
}

TEST(CpTest, FactorsHaveUnitColumnsAndWeights) {
  Rng rng(31);
  SparseTensor x = RandomSparse({5, 5, 5}, 60, &rng);
  auto cp = tensor::CpAlsSparse(x, 3);
  ASSERT_TRUE(cp.ok());
  ASSERT_EQ(cp->Rank(), 3u);
  ASSERT_EQ(cp->factors.size(), 3u);
  // The last-updated mode's columns are unit norm by construction.
  for (const Matrix& factor : cp->factors) {
    EXPECT_EQ(factor.cols(), 3u);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    double norm = 0.0;
    const Matrix& last = cp->factors.back();
    for (std::size_t i = 0; i < last.rows(); ++i) {
      norm += last(i, j) * last(i, j);
    }
    if (cp->weights[j] > 0.0) {
      EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
    }
  }
}

TEST(CpTest, Validation) {
  SparseTensor x({3, 3});
  x.SortAndCoalesce();
  EXPECT_FALSE(tensor::CpAlsSparse(x, 0).ok());
  SparseTensor uncoalesced({3, 3});
  uncoalesced.AppendEntry({0, 0}, 1.0);
  EXPECT_FALSE(tensor::CpAlsSparse(uncoalesced, 2).ok());
  // Mttkrp shape validation.
  std::vector<Matrix> wrong = {Matrix(3, 2), Matrix(4, 2)};
  EXPECT_FALSE(tensor::Mttkrp(x, wrong, 0).ok());
  // CpReconstruct shape validation.
  tensor::CpDecomposition cp;
  cp.factors = {Matrix(3, 1), Matrix(3, 1)};
  cp.weights = {1.0};
  EXPECT_FALSE(tensor::CpReconstruct(cp, {3, 4}).ok());
  EXPECT_TRUE(tensor::CpReconstruct(cp, {3, 3}).ok());
}

}  // namespace
}  // namespace m2td
