#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "tensor/dense_tensor.h"
#include "tensor/matricize.h"
#include "tensor/sparse_tensor.h"
#include "tensor/ttm.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td::tensor {
namespace {

DenseTensor RandomDense(const std::vector<std::uint64_t>& shape, Rng* rng) {
  DenseTensor x(shape);
  for (std::uint64_t i = 0; i < x.NumElements(); ++i) {
    x.flat(i) = rng->Gaussian();
  }
  return x;
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

// ------------------------------------------------------------ DenseTensor

TEST(DenseTensorTest, ShapeStridesAndIndexing) {
  DenseTensor x({2, 3, 4});
  EXPECT_EQ(x.NumElements(), 24u);
  EXPECT_EQ(x.Stride(0), 12u);
  EXPECT_EQ(x.Stride(1), 4u);
  EXPECT_EQ(x.Stride(2), 1u);
  x.at({1, 2, 3}) = 7.0;
  EXPECT_EQ(x.flat(23), 7.0);
  EXPECT_EQ(x.LinearIndex({1, 2, 3}), 23u);
  EXPECT_EQ(x.MultiIndex(23), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(DenseTensorTest, LinearAndMultiIndexRoundTrip) {
  DenseTensor x({3, 4, 2, 5});
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t linear = rng.UniformInt(x.NumElements());
    EXPECT_EQ(x.LinearIndex(x.MultiIndex(linear)), linear);
  }
}

TEST(DenseTensorTest, FillAndNorm) {
  DenseTensor x({2, 2});
  x.Fill(3.0);
  EXPECT_DOUBLE_EQ(x.FrobeniusNorm(), 6.0);
}

TEST(DenseTensorTest, FrobeniusDistance) {
  DenseTensor a({2, 2}), b({2, 2});
  a.Fill(1.0);
  b.Fill(4.0);
  EXPECT_DOUBLE_EQ(DenseTensor::FrobeniusDistance(a, b), 6.0);
}

// ----------------------------------------------------------- SparseTensor

TEST(SparseTensorTest, AppendAndBasicAccessors) {
  SparseTensor x({4, 5});
  EXPECT_EQ(x.NumNonZeros(), 0u);
  EXPECT_EQ(x.LogicalSize(), 20u);
  x.AppendEntry({1, 2}, 3.5);
  x.AppendEntry({0, 4}, -1.0);
  EXPECT_EQ(x.NumNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(x.Density(), 0.1);
  EXPECT_EQ(x.Index(0, 0), 1u);
  EXPECT_EQ(x.Index(1, 0), 2u);
  EXPECT_DOUBLE_EQ(x.Value(0), 3.5);
}

TEST(SparseTensorTest, SortAndCoalesceSum) {
  SparseTensor x({3, 3});
  x.AppendEntry({2, 2}, 1.0);
  x.AppendEntry({0, 1}, 2.0);
  x.AppendEntry({2, 2}, 3.0);
  x.AppendEntry({0, 1}, 5.0);
  x.SortAndCoalesce(CoalescePolicy::kSum);
  ASSERT_EQ(x.NumNonZeros(), 2u);
  EXPECT_EQ(*x.Find({0, 1}), 7.0);
  EXPECT_EQ(*x.Find({2, 2}), 4.0);
}

TEST(SparseTensorTest, SortAndCoalesceMean) {
  SparseTensor x({3, 3});
  x.AppendEntry({1, 1}, 2.0);
  x.AppendEntry({1, 1}, 4.0);
  x.AppendEntry({1, 1}, 6.0);
  x.AppendEntry({0, 0}, 10.0);
  x.SortAndCoalesce(CoalescePolicy::kMean);
  EXPECT_EQ(*x.Find({1, 1}), 4.0);
  EXPECT_EQ(*x.Find({0, 0}), 10.0);
}

TEST(SparseTensorTest, CoalesceIsIdempotent) {
  Rng rng(3);
  SparseTensor x = RandomSparse({6, 6, 6}, 50, &rng);
  const std::uint64_t nnz = x.NumNonZeros();
  const double norm = x.FrobeniusNorm();
  x.SortAndCoalesce();
  EXPECT_EQ(x.NumNonZeros(), nnz);
  EXPECT_DOUBLE_EQ(x.FrobeniusNorm(), norm);
}

TEST(SparseTensorTest, FindMissingReturnsNullopt) {
  SparseTensor x({2, 2});
  x.AppendEntry({0, 0}, 1.0);
  x.SortAndCoalesce();
  EXPECT_FALSE(x.Find({1, 1}).has_value());
  EXPECT_TRUE(x.Find({0, 0}).has_value());
}

TEST(SparseTensorTest, DenseRoundTrip) {
  Rng rng(5);
  SparseTensor x = RandomSparse({4, 3, 5}, 25, &rng);
  DenseTensor dense = x.ToDense();
  SparseTensor back = SparseTensor::FromDense(dense);
  EXPECT_EQ(back.NumNonZeros(), x.NumNonZeros());
  DenseTensor dense2 = back.ToDense();
  EXPECT_DOUBLE_EQ(DenseTensor::FrobeniusDistance(dense, dense2), 0.0);
}

TEST(SparseTensorTest, FromDenseSkipsZeros) {
  DenseTensor dense({2, 2});
  dense.at({0, 1}) = 5.0;
  SparseTensor sparse = SparseTensor::FromDense(dense);
  EXPECT_EQ(sparse.NumNonZeros(), 1u);
  EXPECT_TRUE(sparse.IsSorted());
  EXPECT_EQ(*sparse.Find({0, 1}), 5.0);
}

TEST(SparseTensorTest, FrobeniusNormMatchesDense) {
  Rng rng(6);
  SparseTensor x = RandomSparse({5, 5}, 10, &rng);
  EXPECT_NEAR(x.FrobeniusNorm(), x.ToDense().FrobeniusNorm(), 1e-12);
}

TEST(SparseTensorTest, MatricizationColumnMatchesDenseConvention) {
  SparseTensor x({2, 3, 4});
  x.AppendEntry({1, 2, 3}, 1.0);
  // Column for mode 1: linear over (mode0, mode2) = 1*4 + 3.
  EXPECT_EQ(x.MatricizationColumns(1)[0], 7u);
  // Mode 0: linear over (mode1, mode2) = 2*4 + 3.
  EXPECT_EQ(x.MatricizationColumns(0)[0], 11u);
  // Mode 2: linear over (mode0, mode1) = 1*3 + 2.
  EXPECT_EQ(x.MatricizationColumns(2)[0], 5u);
}

// ----------------------------------------------------------- Matricize

TEST(MatricizeTest, SparseGramMatchesDenseGram) {
  Rng rng(17);
  SparseTensor x = RandomSparse({5, 4, 6}, 40, &rng);
  DenseTensor dense = x.ToDense();
  for (std::size_t mode = 0; mode < 3; ++mode) {
    auto sparse_gram = ModeGram(x, mode);
    auto dense_gram = ModeGramDense(dense, mode);
    ASSERT_TRUE(sparse_gram.ok());
    ASSERT_TRUE(dense_gram.ok());
    EXPECT_LT(linalg::Matrix::MaxAbsDiff(*sparse_gram, *dense_gram), 1e-10)
        << "mode " << mode;
  }
}

TEST(MatricizeTest, GramIsSymmetricPsd) {
  Rng rng(18);
  SparseTensor x = RandomSparse({6, 6, 6}, 60, &rng);
  auto gram = ModeGram(x, 0);
  ASSERT_TRUE(gram.ok());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE((*gram)(i, i), 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ((*gram)(i, j), (*gram)(j, i));
    }
  }
  // trace(G) == ||X||_F^2.
  double trace = 0.0;
  for (std::size_t i = 0; i < 6; ++i) trace += (*gram)(i, i);
  EXPECT_NEAR(trace, x.FrobeniusNorm() * x.FrobeniusNorm(), 1e-10);
}

TEST(MatricizeTest, RequiresCoalescedInput) {
  SparseTensor x({2, 2});
  x.AppendEntry({0, 0}, 1.0);
  EXPECT_FALSE(ModeGram(x, 0).ok());
  x.SortAndCoalesce();
  EXPECT_TRUE(ModeGram(x, 0).ok());
}

TEST(MatricizeTest, ModeOutOfRangeRejected) {
  SparseTensor x({2, 2});
  x.SortAndCoalesce();
  EXPECT_FALSE(ModeGram(x, 2).ok());
}

TEST(MatricizeTest, DenseMatricizationShape) {
  Rng rng(19);
  DenseTensor x = RandomDense({3, 4, 5}, &rng);
  auto unfolded = Matricize(x, 1);
  ASSERT_TRUE(unfolded.ok());
  EXPECT_EQ(unfolded->rows(), 4u);
  EXPECT_EQ(unfolded->cols(), 15u);
  // Element check against the column convention (mode0-major).
  EXPECT_EQ((*unfolded)(2, 1 * 5 + 3), x.at({1, 2, 3}));
}

// ------------------------------------------------------------------ TTM

TEST(TtmTest, ModeProductMatchesManualComputation) {
  // X is 2x2, U is 3x2: Y = X x_0 U has shape 3x2.
  DenseTensor x({2, 2});
  x.at({0, 0}) = 1.0;
  x.at({0, 1}) = 2.0;
  x.at({1, 0}) = 3.0;
  x.at({1, 1}) = 4.0;
  linalg::Matrix u(3, 2, {1, 0, 0, 1, 1, 1});
  auto y = ModeProduct(x, u, 0, /*transpose_u=*/false);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(y->at({0, 0}), 1.0);
  EXPECT_EQ(y->at({1, 1}), 4.0);
  EXPECT_EQ(y->at({2, 0}), 4.0);  // row0 + row1
  EXPECT_EQ(y->at({2, 1}), 6.0);
}

TEST(TtmTest, ModeProductEqualsMatricizedMultiply) {
  Rng rng(23);
  DenseTensor x = RandomDense({4, 5, 3}, &rng);
  linalg::Matrix u(6, 5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) u(i, j) = rng.Gaussian();
  }
  auto y = ModeProduct(x, u, 1, /*transpose_u=*/false);
  ASSERT_TRUE(y.ok());
  // Check Y_(1) == U X_(1).
  auto x1 = Matricize(x, 1);
  auto y1 = Matricize(*y, 1);
  ASSERT_TRUE(x1.ok() && y1.ok());
  linalg::Matrix expected = linalg::Multiply(u, *x1);
  EXPECT_LT(linalg::Matrix::MaxAbsDiff(expected, *y1), 1e-10);
}

TEST(TtmTest, SparseModeProductMatchesDense) {
  Rng rng(29);
  SparseTensor x = RandomSparse({4, 5, 3}, 20, &rng);
  DenseTensor dense = x.ToDense();
  linalg::Matrix u(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 2; ++j) u(i, j) = rng.Gaussian();
  }
  auto sparse_result = SparseModeProduct(x, u, 1, /*transpose_u=*/true);
  auto dense_result = ModeProduct(dense, u, 1, /*transpose_u=*/true);
  ASSERT_TRUE(sparse_result.ok() && dense_result.ok());
  EXPECT_NEAR(
      DenseTensor::FrobeniusDistance(*sparse_result, *dense_result), 0.0,
      1e-10);
}

TEST(TtmTest, TransposeContractionShapeChecks) {
  DenseTensor x({3, 4});
  linalg::Matrix u(3, 2);
  // Non-transposed U needs cols == dim: 2 != 3 -> error.
  EXPECT_FALSE(ModeProduct(x, u, 0, false).ok());
  // Transposed U needs rows == dim: 3 == 3 -> ok, new dim = 2.
  auto y = ModeProduct(x, u, 0, true);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->dim(0), 2u);
}

TEST(TtmTest, CoreFromSparseMatchesDenseChain) {
  Rng rng(31);
  SparseTensor x = RandomSparse({4, 4, 4}, 30, &rng);
  std::vector<linalg::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    linalg::Matrix u(4, 2);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 2; ++j) u(i, j) = rng.Gaussian();
    }
    factors.push_back(std::move(u));
  }
  auto sparse_core = CoreFromSparse(x, factors);
  auto dense_core = CoreFromDense(x.ToDense(), factors);
  ASSERT_TRUE(sparse_core.ok() && dense_core.ok());
  EXPECT_NEAR(DenseTensor::FrobeniusDistance(*sparse_core, *dense_core), 0.0,
              1e-10);
}

TEST(TtmTest, ExpandCoreInvertsProjectionForOrthonormalFactors) {
  // For X in the span of orthonormal factors, (X x U^T) x U == X.
  Rng rng(37);
  std::vector<linalg::Matrix> factors;
  for (int m = 0; m < 2; ++m) {
    factors.push_back(linalg::Matrix::Identity(3));
  }
  DenseTensor x = RandomDense({3, 3}, &rng);
  auto core = CoreFromDense(x, factors);
  ASSERT_TRUE(core.ok());
  auto back = ExpandCore(*core, factors);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(DenseTensor::FrobeniusDistance(x, *back), 0.0, 1e-12);
}

TEST(TtmTest, FactorCountValidation) {
  SparseTensor x({2, 2});
  x.SortAndCoalesce();
  EXPECT_FALSE(CoreFromSparse(x, {}).ok());
}

// ---------------------------------------------------------------- Tucker

TEST(TuckerTest, ExactRecoveryAtFullRank) {
  Rng rng(41);
  DenseTensor x = RandomDense({4, 3, 5}, &rng);
  auto tucker = HosvdDense(x, {4, 3, 5});
  ASSERT_TRUE(tucker.ok());
  auto reconstructed = Reconstruct(*tucker);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_NEAR(DenseTensor::FrobeniusDistance(x, *reconstructed), 0.0, 1e-9);
  EXPECT_NEAR(ReconstructionAccuracy(*reconstructed, x), 1.0, 1e-9);
}

TEST(TuckerTest, SparseMatchesDenseHosvd) {
  Rng rng(43);
  SparseTensor x = RandomSparse({5, 5, 5}, 40, &rng);
  auto sparse_tucker = HosvdSparse(x, {3, 3, 3});
  auto dense_tucker = HosvdDense(x.ToDense(), {3, 3, 3});
  ASSERT_TRUE(sparse_tucker.ok() && dense_tucker.ok());
  auto r1 = Reconstruct(*sparse_tucker);
  auto r2 = Reconstruct(*dense_tucker);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NEAR(DenseTensor::FrobeniusDistance(*r1, *r2), 0.0, 1e-8);
}

TEST(TuckerTest, LowRankTensorRecoveredExactly) {
  // Build a rank-(2,2,2) tensor from a random core and orthonormal factors;
  // HOSVD at rank 2 must recover it exactly.
  Rng rng(47);
  DenseTensor core({2, 2, 2});
  for (std::uint64_t i = 0; i < core.NumElements(); ++i) {
    core.flat(i) = rng.Gaussian();
  }
  std::vector<linalg::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    linalg::Matrix g(6, 2);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 2; ++j) g(i, j) = rng.Gaussian();
    }
    auto q = linalg::OrthonormalizeColumns(g);
    ASSERT_TRUE(q.ok());
    factors.push_back(std::move(*q));
  }
  auto x = ExpandCore(core, factors);
  ASSERT_TRUE(x.ok());
  auto tucker = HosvdDense(*x, {2, 2, 2});
  ASSERT_TRUE(tucker.ok());
  auto reconstructed = Reconstruct(*tucker);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_NEAR(DenseTensor::FrobeniusDistance(*x, *reconstructed), 0.0, 1e-9);
}

TEST(TuckerTest, RanksClampToModeLengths) {
  Rng rng(53);
  SparseTensor x = RandomSparse({3, 3, 3}, 15, &rng);
  auto tucker = HosvdSparse(x, {10, 10, 10});
  ASSERT_TRUE(tucker.ok());
  EXPECT_EQ(tucker->core.shape(), (std::vector<std::uint64_t>{3, 3, 3}));
  EXPECT_EQ(tucker->ReconstructedShape(),
            (std::vector<std::uint64_t>{3, 3, 3}));
}

TEST(TuckerTest, InvalidRanksRejected) {
  SparseTensor x({2, 2});
  x.SortAndCoalesce();
  EXPECT_FALSE(HosvdSparse(x, {2}).ok());
  EXPECT_FALSE(HosvdSparse(x, {0, 2}).ok());
}

TEST(TuckerTest, UncoalescedInputRejected) {
  SparseTensor x({2, 2});
  x.AppendEntry({0, 0}, 1.0);
  EXPECT_FALSE(HosvdSparse(x, {2, 2}).ok());
}

TEST(TuckerTest, AccuracyMetricProperties) {
  DenseTensor y({2, 2});
  y.Fill(2.0);
  // Perfect reconstruction -> 1.0.
  EXPECT_DOUBLE_EQ(ReconstructionAccuracy(y, y), 1.0);
  // All-zero reconstruction -> 0.0.
  DenseTensor zero({2, 2});
  EXPECT_DOUBLE_EQ(ReconstructionAccuracy(zero, y), 0.0);
  // Zero ground truth -> defined as 0.
  EXPECT_DOUBLE_EQ(ReconstructionAccuracy(y, zero), 0.0);
}

TEST(TuckerTest, HigherRankNeverHurtsAccuracy) {
  Rng rng(59);
  DenseTensor x = RandomDense({5, 5, 5}, &rng);
  double last = -1.0;
  for (std::uint64_t rank : {1, 2, 3, 4, 5}) {
    auto tucker = HosvdDense(x, {rank, rank, rank});
    ASSERT_TRUE(tucker.ok());
    auto r = Reconstruct(*tucker);
    ASSERT_TRUE(r.ok());
    const double acc = ReconstructionAccuracy(*r, x);
    EXPECT_GE(acc, last - 1e-9) << "rank " << rank;
    last = acc;
  }
  EXPECT_NEAR(last, 1.0, 1e-9);
}

// ------------------------------------------------- ingest validation

TEST(SparseTensorTest, AppendEntryCheckedRejectsNaNNamingCoordinate) {
  SparseTensor x({4, 3, 5});
  const Status s = x.AppendEntryChecked(
      {1, 2, 3}, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("NaN"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("(1, 2, 3)"), std::string::npos) << s.message();
  EXPECT_EQ(x.NumNonZeros(), 0u);  // nothing partially appended
}

TEST(SparseTensorTest, AppendEntryCheckedRejectsInfinity) {
  SparseTensor x({2, 2});
  const Status s =
      x.AppendEntryChecked({0, 1}, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("infinite"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("(0, 1)"), std::string::npos) << s.message();
}

TEST(SparseTensorTest, AppendEntryCheckedRejectsBadArityAndRange) {
  SparseTensor x({2, 2});
  EXPECT_EQ(x.AppendEntryChecked({0}, 1.0).code(),
            StatusCode::kInvalidArgument);
  const Status range = x.AppendEntryChecked({0, 5}, 1.0);
  EXPECT_EQ(range.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(range.message().find("(0, 5)"), std::string::npos)
      << range.message();
  EXPECT_TRUE(x.AppendEntryChecked({0, 1}, 1.0).ok());
  EXPECT_EQ(x.NumNonZeros(), 1u);
}

TEST(SparseTensorTest, CheckFiniteLocatesOffendingCoordinate) {
  SparseTensor x({3, 3});
  x.AppendEntry({0, 0}, 1.0);
  // Unchecked append models data corrupted after construction.
  x.AppendEntry({2, 1}, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(SparseTensor({3, 3}).CheckFinite().ok());
  const Status s = x.CheckFinite();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("(2, 1)"), std::string::npos) << s.message();
}

}  // namespace
}  // namespace m2td::tensor
