// Property-style sweeps over the M2TD pipeline: invariants that must hold
// for every combination of resolution, rank, pivot choice, pivot count,
// stitching mode, and method — parameterized gtest over the cross product.

#include <algorithm>
#include <cmath>
#include <string>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/je_stitch.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "linalg/matrix.h"
#include "tensor/ttm.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td::core {
namespace {

std::unique_ptr<ensemble::DynamicalSystemModel> TinyModel(
    std::uint32_t resolution) {
  ensemble::ModelOptions options;
  options.parameter_resolution = resolution;
  options.time_resolution = resolution;
  options.dt = 0.02;
  options.record_every = 4;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).ValueOrDie();
}

// ----------------------------------------------------------------------
// Sweep 1: (resolution, rank, pivot mode) — pipeline invariants.

using PipelineParam = std::tuple<std::uint32_t, std::uint64_t, std::size_t>;

class M2tdPipelineProperty
    : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(M2tdPipelineProperty, InvariantsHold) {
  const auto [resolution, rank, pivot] = GetParam();
  auto model = TinyModel(resolution);
  auto partition = MakePartition(5, {pivot});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  // Budget arithmetic: both sides are full P x E grids.
  const std::uint64_t p = subs->pivot_configs.size();
  const std::uint64_t e1 = subs->side1_configs.size();
  const std::uint64_t e2 = subs->side2_configs.size();
  EXPECT_EQ(subs->x1.NumNonZeros(), p * e1);
  EXPECT_EQ(subs->x2.NumNonZeros(), p * e2);
  EXPECT_EQ(subs->cells_evaluated, p * (e1 + e2));

  // Join density: exactly P * E1 * E2 cells.
  auto join = JeStitch(*subs, *partition, model->space().Shape(), {});
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->NumNonZeros(), p * e1 * e2);

  // Full M2TD decomposition invariants.
  M2tdOptions options;
  options.method = M2tdMethod::kSelect;
  options.ranks = std::vector<std::uint64_t>(5, rank);
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  const std::uint64_t clamped = std::min<std::uint64_t>(rank, resolution);
  for (const auto& factor : result->tucker.factors) {
    EXPECT_EQ(factor.rows(), resolution);
    EXPECT_EQ(factor.cols(), clamped);
  }
  EXPECT_EQ(result->tucker.core.shape(),
            std::vector<std::uint64_t>(5, clamped));
  EXPECT_EQ(result->join_nnz, p * e1 * e2);

  // Reconstruction is finite and at most perfectly accurate.
  auto reconstructed = tensor::Reconstruct(result->tucker);
  ASSERT_TRUE(reconstructed.ok());
  for (std::uint64_t i = 0; i < reconstructed->NumElements(); ++i) {
    ASSERT_TRUE(std::isfinite(reconstructed->flat(i)));
  }
  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());
  const double accuracy =
      tensor::ReconstructionAccuracy(*reconstructed, *ground_truth);
  EXPECT_LE(accuracy, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, M2tdPipelineProperty,
    ::testing::Combine(::testing::Values(4u, 5u, 6u),
                       ::testing::Values(2ULL, 3ULL, 10ULL),
                       ::testing::Values(std::size_t{0}, std::size_t{2},
                                         std::size_t{4})),
    [](const auto& info) {
      return "res" + std::to_string(std::get<0>(info.param)) + "_rank" +
             std::to_string(std::get<1>(info.param)) + "_pivot" +
             std::to_string(std::get<2>(info.param));
    });

// ----------------------------------------------------------------------
// Sweep 2: every method x stitching mode — local/distributed equivalence.

using MethodParam = std::tuple<M2tdMethod, bool>;

class M2tdMethodEquivalence : public ::testing::TestWithParam<MethodParam> {};

TEST_P(M2tdMethodEquivalence, DistributedMatchesLocal) {
  const auto [method, zero_join] = GetParam();
  auto model = TinyModel(5);
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions sub_options;
  sub_options.cell_density = zero_join ? 0.5 : 1.0;
  auto subs = BuildSubEnsembles(model.get(), *partition, sub_options);
  ASSERT_TRUE(subs.ok());

  M2tdOptions local_options;
  local_options.method = method;
  local_options.ranks = std::vector<std::uint64_t>(5, 3);
  local_options.stitch.zero_join = zero_join;
  auto local = M2tdDecompose(*subs, *partition, model->space().Shape(),
                             local_options);
  ASSERT_TRUE(local.ok());

  DM2tdOptions dist_options;
  dist_options.method = method;
  dist_options.ranks = local_options.ranks;
  dist_options.stitch.zero_join = zero_join;
  dist_options.num_workers = 3;
  auto dist = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                             dist_options);
  ASSERT_TRUE(dist.ok());

  EXPECT_EQ(dist->join_nnz, local->join_nnz);
  // Both pipelines combine pivot factors in CombinePivotFactor, so the
  // factors themselves agree, not only the reconstructions.
  ASSERT_EQ(dist->tucker.factors.size(), local->tucker.factors.size());
  for (std::size_t m = 0; m < local->tucker.factors.size(); ++m) {
    const linalg::Matrix& a = local->tucker.factors[m];
    const linalg::Matrix& b = dist->tucker.factors[m];
    ASSERT_EQ(b.rows(), a.rows()) << "mode " << m;
    ASSERT_EQ(b.cols(), a.cols()) << "mode " << m;
    EXPECT_LE(linalg::Matrix::MaxAbsDiff(a, b), 1e-12) << "mode " << m;
  }
  auto r_local = tensor::Reconstruct(local->tucker);
  auto r_dist = tensor::Reconstruct(dist->tucker);
  ASSERT_TRUE(r_local.ok() && r_dist.ok());
  EXPECT_NEAR(tensor::DenseTensor::FrobeniusDistance(*r_local, *r_dist), 0.0,
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, M2tdMethodEquivalence,
    ::testing::Combine(::testing::Values(M2tdMethod::kAvg,
                                         M2tdMethod::kConcat,
                                         M2tdMethod::kSelect,
                                         M2tdMethod::kWeighted),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case M2tdMethod::kAvg:
          name = "Avg";
          break;
        case M2tdMethod::kConcat:
          name = "Concat";
          break;
        case M2tdMethod::kSelect:
          name = "Select";
          break;
        case M2tdMethod::kWeighted:
          name = "Weighted";
          break;
      }
      return name + (std::get<1>(info.param) ? "ZeroJoin" : "Join");
    });

// ----------------------------------------------------------------------
// Sweep 3: D-M2TD's per-pivot core recovery against the join oracle. The
// core must match JeStitch + CoreFromSparse over the same factors to
// 1e-12 relative (max-abs error over the core's max-abs), with an equal
// join_nnz, for every method, plain and zero-join stitching, a leading,
// an interleaved and a two-mode pivot, on both backends. The ensemble is
// sub-sampled, and one pivot configuration is dropped from each side, so
// some pivots exist on one side only.

enum class PivotLayout { kLeading, kInterleaved, kTwoModes };
using OracleParam = std::tuple<M2tdMethod, bool, PivotLayout, DistBackend>;

/// `sub` without the cells of pivot configuration `pivot_key` (pivot modes
/// are the first `k` modes of a sub-tensor).
tensor::SparseTensor DropPivot(const tensor::SparseTensor& sub, std::size_t k,
                               std::uint64_t pivot_key) {
  tensor::SparseTensor out(sub.shape());
  std::vector<std::uint32_t> idx(sub.num_modes());
  for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
    std::uint64_t key = 0;
    for (std::size_t m = 0; m < sub.num_modes(); ++m) {
      idx[m] = sub.Index(m, e);
      if (m < k) key = key * sub.dim(m) + idx[m];
    }
    if (key != pivot_key) out.AppendEntry(idx, sub.Value(e));
  }
  out.SortAndCoalesce();
  return out;
}

class DistributedCoreOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(DistributedCoreOracle, CoreMatchesJoinOracle) {
  const auto [method, zero_join, layout, backend] = GetParam();
  auto model = TinyModel(5);
  const std::vector<std::size_t> pivots =
      layout == PivotLayout::kLeading       ? std::vector<std::size_t>{0}
      : layout == PivotLayout::kInterleaved ? std::vector<std::size_t>{2}
                                            : std::vector<std::size_t>{1, 3};
  auto partition = MakePartition(5, pivots);
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions sub_options;
  sub_options.cell_density = 0.6;
  auto subs = BuildSubEnsembles(model.get(), *partition, sub_options);
  ASSERT_TRUE(subs.ok());
  const std::size_t k = pivots.size();
  subs->x1 = DropPivot(subs->x1, k, 1);
  subs->x2 = DropPivot(subs->x2, k, 3);

  DM2tdOptions options;
  options.method = method;
  options.ranks = std::vector<std::uint64_t>(5, 3);
  options.stitch.zero_join = zero_join;
  options.num_workers = 2;
  options.backend = backend;
  if (backend == DistBackend::kProcess) {
    options.num_shards = 3;
    options.process.worker_binary = M2TD_WORKER_BIN;
  }
  const std::vector<std::uint64_t> shape = model->space().Shape();
  auto dist = DM2tdDecompose(*subs, *partition, shape, options);
  ASSERT_TRUE(dist.ok()) << dist.status();

  auto join = JeStitch(*subs, *partition, shape, options.stitch);
  ASSERT_TRUE(join.ok()) << join.status();
  auto oracle = tensor::CoreFromSparse(*join, dist->tucker.factors);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  EXPECT_EQ(dist->join_nnz, join->NumNonZeros());
  ASSERT_EQ(dist->tucker.core.shape(), oracle->shape());
  double max_abs = 0.0, max_err = 0.0;
  for (std::uint64_t i = 0; i < oracle->NumElements(); ++i) {
    max_abs = std::max(max_abs, std::abs(oracle->flat(i)));
    max_err = std::max(max_err,
                       std::abs(dist->tucker.core.flat(i) - oracle->flat(i)));
  }
  ASSERT_GT(max_abs, 0.0);
  EXPECT_LE(max_err, 1e-12 * max_abs) << "max_err " << max_err
                                      << ", max_abs " << max_abs;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedCoreOracle,
    ::testing::Combine(::testing::Values(M2tdMethod::kAvg,
                                         M2tdMethod::kConcat,
                                         M2tdMethod::kSelect,
                                         M2tdMethod::kWeighted),
                       ::testing::Bool(),
                       ::testing::Values(PivotLayout::kLeading,
                                         PivotLayout::kInterleaved,
                                         PivotLayout::kTwoModes),
                       ::testing::Values(DistBackend::kThread,
                                         DistBackend::kProcess)),
    [](const auto& info) {
      std::string name = M2tdMethodName(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      name += std::get<1>(info.param) ? "_ZeroJoin" : "_Join";
      switch (std::get<2>(info.param)) {
        case PivotLayout::kLeading:
          name += "_Pivot0";
          break;
        case PivotLayout::kInterleaved:
          name += "_Pivot2";
          break;
        case PivotLayout::kTwoModes:
          name += "_Pivots13";
          break;
      }
      return name + (std::get<3>(info.param) == DistBackend::kThread
                         ? "_Thread"
                         : "_Process");
    });

// ----------------------------------------------------------------------
// Heterogeneous ranks: each mode may target a different rank.

TEST(HeterogeneousRanksTest, PerModeRanksRespected) {
  auto model = TinyModel(5);
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions options;
  options.ranks = {2, 3, 1, 4, 2};
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tucker.core.shape(),
            (std::vector<std::uint64_t>{2, 3, 1, 4, 2}));
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(result->tucker.factors[m].cols(), options.ranks[m])
        << "mode " << m;
  }
  auto reconstructed = tensor::Reconstruct(result->tucker);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(reconstructed->shape(), model->space().Shape());

  // Distributed pipeline honors the same heterogeneous ranks.
  DM2tdOptions dist_options;
  dist_options.ranks = options.ranks;
  dist_options.num_workers = 2;
  auto dist = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                             dist_options);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->tucker.core.shape(), result->tucker.core.shape());
  auto r_dist = tensor::Reconstruct(dist->tucker);
  ASSERT_TRUE(r_dist.ok());
  EXPECT_NEAR(
      tensor::DenseTensor::FrobeniusDistance(*reconstructed, *r_dist), 0.0,
      1e-8);
}

// ----------------------------------------------------------------------
// Multi-pivot (k = 2) support.

TEST(MultiPivotTest, TwoPivotPartitionAndStitch) {
  auto model = TinyModel(4);
  // Pivots {0, 1}: sides {2} and {3, 4} by the default split... the
  // remaining three modes split as 1 + 2.
  auto partition = MakePartition(5, {0, 1});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->pivot_modes.size(), 2u);
  EXPECT_EQ(partition->side1_modes, (std::vector<std::size_t>{2}));
  EXPECT_EQ(partition->side2_modes, (std::vector<std::size_t>{3, 4}));

  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  // P = 4*4, E1 = 4, E2 = 16.
  EXPECT_EQ(subs->pivot_configs.size(), 16u);
  EXPECT_EQ(subs->x1.NumNonZeros(), 64u);
  EXPECT_EQ(subs->x2.NumNonZeros(), 256u);

  auto join = JeStitch(*subs, *partition, model->space().Shape(), {});
  ASSERT_TRUE(join.ok());
  // P * E1 * E2 = 16 * 4 * 16 = 1024 = the whole space at res 4.
  EXPECT_EQ(join->NumNonZeros(), 1024u);

  M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());
  auto reconstructed = tensor::Reconstruct(result->tucker);
  ASSERT_TRUE(reconstructed.ok());
  const double accuracy =
      tensor::ReconstructionAccuracy(*reconstructed, *ground_truth);
  EXPECT_GT(accuracy, 0.1);
  EXPECT_LE(accuracy, 1.0);
}

TEST(MultiPivotTest, TwoPivotDistributedMatchesLocal) {
  auto model = TinyModel(4);
  auto partition = MakePartition(5, {0, 2});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions local_options;
  local_options.ranks = std::vector<std::uint64_t>(5, 2);
  auto local = M2tdDecompose(*subs, *partition, model->space().Shape(),
                             local_options);
  ASSERT_TRUE(local.ok());
  DM2tdOptions dist_options;
  dist_options.ranks = local_options.ranks;
  dist_options.num_workers = 2;
  auto dist = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                             dist_options);
  ASSERT_TRUE(dist.ok());
  auto r_local = tensor::Reconstruct(local->tucker);
  auto r_dist = tensor::Reconstruct(dist->tucker);
  ASSERT_TRUE(r_local.ok() && r_dist.ok());
  EXPECT_NEAR(tensor::DenseTensor::FrobeniusDistance(*r_local, *r_dist), 0.0,
              1e-8);
}

// ----------------------------------------------------------------------
// Degenerate budgets: a join that comes out (almost) empty must flow
// through the whole pipeline without errors, yielding a zero-ish core.

TEST(DegenerateBudgetTest, DisjointPivotGroupsYieldEmptyJoinGracefully) {
  // Hand-built sub-ensembles whose pivot sets do not intersect.
  PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1, 2};
  partition.side2_modes = {3, 4};
  SubEnsembles subs;
  subs.x1 = tensor::SparseTensor({4, 4, 4});
  subs.x2 = tensor::SparseTensor({4, 4, 4});
  subs.x1.AppendEntry({0, 1, 1}, 1.0);
  subs.x1.AppendEntry({1, 2, 2}, 2.0);
  subs.x2.AppendEntry({2, 1, 1}, 3.0);
  subs.x2.AppendEntry({3, 0, 0}, 4.0);
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();

  const std::vector<std::uint64_t> shape(5, 4);
  M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto result = M2tdDecompose(subs, partition, shape, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->join_nnz, 0u);
  EXPECT_EQ(result->tucker.core.FrobeniusNorm(), 0.0);
  auto reconstructed = tensor::Reconstruct(result->tucker);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(reconstructed->FrobeniusNorm(), 0.0);

  // Distributed path agrees.
  DM2tdOptions dist_options;
  dist_options.ranks = options.ranks;
  dist_options.num_workers = 2;
  auto dist = DM2tdDecompose(subs, partition, shape, dist_options);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->join_nnz, 0u);
  EXPECT_EQ(dist->tucker.core.FrobeniusNorm(), 0.0);
}

// ----------------------------------------------------------------------
// Zero-join dominance property across random sub-ensembles.

class ZeroJoinProperty : public ::testing::TestWithParam<double> {};

TEST_P(ZeroJoinProperty, ZeroJoinNeverSmallerThanJoin) {
  const double cell_density = GetParam();
  auto model = TinyModel(5);
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions sub_options;
  sub_options.cell_density = cell_density;
  sub_options.seed = 1234;
  auto subs = BuildSubEnsembles(model.get(), *partition, sub_options);
  ASSERT_TRUE(subs.ok());
  auto join = JeStitch(*subs, *partition, model->space().Shape(), {});
  StitchOptions zero;
  zero.zero_join = true;
  auto zjoin = JeStitch(*subs, *partition, model->space().Shape(), zero);
  ASSERT_TRUE(join.ok() && zjoin.ok());
  EXPECT_GE(zjoin->NumNonZeros(), join->NumNonZeros());
}

INSTANTIATE_TEST_SUITE_P(Densities, ZeroJoinProperty,
                         ::testing::Values(1.0, 0.8, 0.5, 0.3, 0.1),
                         [](const auto& info) {
                           return "d" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ----------------------------------------------------------------------
// CONCAT pivot factors stay orthonormal (AVG/SELECT need not).

TEST(ConcatOrthonormalityTest, PivotFactorHasOrthonormalColumns) {
  auto model = TinyModel(6);
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions options;
  options.method = M2tdMethod::kConcat;
  options.ranks = std::vector<std::uint64_t>(5, 3);
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  const linalg::Matrix& pivot_factor = result->tucker.factors[0];
  linalg::Matrix gram = linalg::MultiplyTransA(pivot_factor, pivot_factor);
  EXPECT_LT(linalg::Matrix::MaxAbsDiff(gram, linalg::Matrix::Identity(3)),
            1e-9);
}

// ----------------------------------------------------------------------
// RowWeightedBlend properties.

TEST(RowWeightedBlendTest, InterpolatesBetweenInputs) {
  linalg::Matrix u1(2, 2, {2, 0, 1, 1});
  linalg::Matrix u2(2, 2, {0, 0, 3, 3});
  auto blend = RowWeightedBlend(u1, u2);
  ASSERT_TRUE(blend.ok());
  // Row 0: u2's row is zero, so the blend equals u1's row.
  EXPECT_DOUBLE_EQ((*blend)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*blend)(0, 1), 0.0);
  // Row 1: weights sqrt(2) and 3*sqrt(2) -> (1*r1 + 3*r2)/4.
  EXPECT_NEAR((*blend)(1, 0), (1.0 * 1 + 3.0 * 3) / 4.0, 1e-12);
}

TEST(RowWeightedBlendTest, ZeroRowsStayZeroAndShapesChecked) {
  linalg::Matrix zero(2, 2);
  auto blend = RowWeightedBlend(zero, zero);
  ASSERT_TRUE(blend.ok());
  EXPECT_EQ(blend->FrobeniusNorm(), 0.0);
  EXPECT_FALSE(RowWeightedBlend(linalg::Matrix(2, 2),
                                linalg::Matrix(3, 2)).ok());
}

TEST(RowWeightedBlendTest, EqualEnergyEqualsAverage) {
  linalg::Matrix u1(1, 2, {1, 0});
  linalg::Matrix u2(1, 2, {0, 1});
  auto blend = RowWeightedBlend(u1, u2);
  ASSERT_TRUE(blend.ok());
  EXPECT_DOUBLE_EQ((*blend)(0, 0), 0.5);
  EXPECT_DOUBLE_EQ((*blend)(0, 1), 0.5);
}

}  // namespace
}  // namespace m2td::core
