#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/experiment.h"
#include "core/je_stitch.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td::core {
namespace {

ensemble::ModelOptions SmallOptions() {
  ensemble::ModelOptions options;
  options.parameter_resolution = 4;
  options.time_resolution = 4;
  options.dt = 0.01;
  options.record_every = 5;
  return options;
}

std::unique_ptr<ensemble::DynamicalSystemModel> SmallModel() {
  auto model = ensemble::MakeDoublePendulumModel(SmallOptions());
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

// ------------------------------------------------------------ PfPartition

TEST(PfPartitionTest, DefaultSplitHalvesRemainingModes) {
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->pivot_modes, (std::vector<std::size_t>{0}));
  EXPECT_EQ(partition->side1_modes, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(partition->side2_modes, (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(partition->NumModes(), 5u);
}

TEST(PfPartitionTest, MiddlePivotSplit) {
  auto partition = MakePartition(5, {2});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->side1_modes, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(partition->side2_modes, (std::vector<std::size_t>{3, 4}));
}

TEST(PfPartitionTest, ExplicitSideAssignment) {
  // Keep same-pendulum parameters together (Table VIII note): pivot phi1,
  // side1 = {m1, t}, side2 = {phi2, m2} for modes (t,phi1,phi2,m1,m2).
  auto partition = MakePartition(5, {1}, {3, 0});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->side1_modes, (std::vector<std::size_t>{3, 0}));
  EXPECT_EQ(partition->side2_modes, (std::vector<std::size_t>{2, 4}));
}

TEST(PfPartitionTest, SubTensorModes) {
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->SubTensorModes(1), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(partition->SubTensorModes(2), (std::vector<std::size_t>{0, 3, 4}));
}

TEST(PfPartitionTest, Validation) {
  EXPECT_FALSE(MakePartition(5, {}).ok());
  EXPECT_FALSE(MakePartition(5, {7}).ok());
  EXPECT_FALSE(MakePartition(5, {0, 0}).ok());
  EXPECT_FALSE(MakePartition(2, {0}).ok());  // only one non-pivot mode
  EXPECT_FALSE(MakePartition(5, {0}, {0, 1}).ok());  // overlaps pivot
  EXPECT_FALSE(MakePartition(3, {0}, {1, 2}).ok());  // side 2 empty
}

// ----------------------------------------------------------- SubEnsembles

TEST(SubEnsemblesTest, FullDensityIsCompleteCrossProduct) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions options;
  auto subs = BuildSubEnsembles(model.get(), *partition, options);
  ASSERT_TRUE(subs.ok());
  // Pivot grid 4 (time), side grids 4*4 = 16 each.
  EXPECT_EQ(subs->pivot_configs.size(), 4u);
  EXPECT_EQ(subs->side1_configs.size(), 16u);
  EXPECT_EQ(subs->side2_configs.size(), 16u);
  EXPECT_EQ(subs->x1.NumNonZeros(), 64u);
  EXPECT_EQ(subs->x2.NumNonZeros(), 64u);
  EXPECT_EQ(subs->cells_evaluated, 128u);
  EXPECT_EQ(subs->x1.shape(), (std::vector<std::uint64_t>{4, 4, 4}));
}

TEST(SubEnsemblesTest, SubTensorValuesMatchModelWithDefaults) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  const auto& space = model->space();
  // Entry (t, phi1, phi2) of X1 must equal Cell(t, phi1, phi2, d3, d4).
  for (std::uint64_t e = 0; e < subs->x1.NumNonZeros(); e += 7) {
    std::vector<std::uint32_t> idx = {
        subs->x1.Index(0, e), subs->x1.Index(1, e), subs->x1.Index(2, e),
        space.DefaultIndex(3), space.DefaultIndex(4)};
    EXPECT_DOUBLE_EQ(subs->x1.Value(e), model->Cell(idx));
  }
}

TEST(SubEnsemblesTest, ReducedDensities) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions options;
  options.pivot_density = 0.5;
  options.side_density = 0.5;
  auto subs = BuildSubEnsembles(model.get(), *partition, options);
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(subs->pivot_configs.size(), 2u);
  EXPECT_EQ(subs->side1_configs.size(), 8u);
  EXPECT_EQ(subs->x1.NumNonZeros(), 16u);
}

TEST(SubEnsemblesTest, CellDensitySubsamplesCrossProduct) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions options;
  options.cell_density = 0.25;
  auto subs = BuildSubEnsembles(model.get(), *partition, options);
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(subs->x1.NumNonZeros(), 16u);  // 25% of 64
  EXPECT_EQ(subs->x2.NumNonZeros(), 16u);
}

TEST(SubEnsemblesTest, Validation) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions bad;
  bad.pivot_density = 0.0;
  EXPECT_FALSE(BuildSubEnsembles(model.get(), *partition, bad).ok());
  bad = {};
  bad.side_density = 1.5;
  EXPECT_FALSE(BuildSubEnsembles(model.get(), *partition, bad).ok());
  EXPECT_FALSE(BuildSubEnsembles(nullptr, *partition, {}).ok());
}

// -------------------------------------------------------------- JeStitch

TEST(JeStitchTest, JoinAveragesMatchingPairs) {
  // Hand-built sub-tensors over a 3-mode space (pivot, a, b), shapes 2x2x2.
  PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1};
  partition.side2_modes = {2};
  SubEnsembles subs;
  subs.x1 = tensor::SparseTensor({2, 2});
  subs.x2 = tensor::SparseTensor({2, 2});
  subs.x1.AppendEntry({0, 0}, 2.0);  // (p=0, a=0)
  subs.x1.AppendEntry({0, 1}, 4.0);  // (p=0, a=1)
  subs.x2.AppendEntry({0, 1}, 6.0);  // (p=0, b=1)
  subs.x2.AppendEntry({1, 0}, 8.0);  // (p=1, b=0): no partner in x1
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();

  auto join = JeStitch(subs, partition, {2, 2, 2});
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->NumNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(*join->Find({0, 0, 1}), 4.0);  // (2+6)/2
  EXPECT_DOUBLE_EQ(*join->Find({0, 1, 1}), 5.0);  // (4+6)/2
  EXPECT_FALSE(join->Find({1, 0, 0}).has_value());
}

TEST(JeStitchTest, ZeroJoinPadsMissingPartners) {
  PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1};
  partition.side2_modes = {2};
  SubEnsembles subs;
  subs.x1 = tensor::SparseTensor({2, 2});
  subs.x2 = tensor::SparseTensor({2, 2});
  subs.x1.AppendEntry({0, 0}, 2.0);
  subs.x2.AppendEntry({1, 1}, 8.0);  // different pivot: join would be empty
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();

  StitchOptions plain;
  auto join = JeStitch(subs, partition, {2, 2, 2}, plain);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->NumNonZeros(), 0u);

  StitchOptions zero;
  zero.zero_join = true;
  auto zjoin = JeStitch(subs, partition, {2, 2, 2}, zero);
  ASSERT_TRUE(zjoin.ok());
  // Candidates: side1 = {0}, side2 = {1}; pivots 0 and 1 each produce one
  // half-pair.
  EXPECT_EQ(zjoin->NumNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(*zjoin->Find({0, 0, 1}), 1.0);  // (2+0)/2
  EXPECT_DOUBLE_EQ(*zjoin->Find({1, 0, 1}), 4.0);  // (0+8)/2
}

TEST(JeStitchTest, ZeroJoinSupersetOfJoin) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions options;
  options.cell_density = 0.5;
  auto subs = BuildSubEnsembles(model.get(), *partition, options);
  ASSERT_TRUE(subs.ok());
  auto join = JeStitch(*subs, *partition, model->space().Shape(), {});
  StitchOptions zero;
  zero.zero_join = true;
  auto zjoin = JeStitch(*subs, *partition, model->space().Shape(), zero);
  ASSERT_TRUE(join.ok() && zjoin.ok());
  EXPECT_GT(zjoin->NumNonZeros(), join->NumNonZeros());
  // Every plain-join cell exists in the zero-join with the same value.
  for (std::uint64_t e = 0; e < join->NumNonZeros(); ++e) {
    std::vector<std::uint32_t> idx(5);
    for (std::size_t m = 0; m < 5; ++m) idx[m] = join->Index(m, e);
    auto value = zjoin->Find(idx);
    ASSERT_TRUE(value.has_value());
    EXPECT_DOUBLE_EQ(*value, join->Value(e));
  }
}

TEST(JeStitchTest, FullDensityJoinDensityIsSquared) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  auto join = JeStitch(*subs, *partition, model->space().Shape(), {});
  ASSERT_TRUE(join.ok());
  // P * E^2 = 4 * 16 * 16 = 1024 = the whole 4^5 space at res 4.
  EXPECT_EQ(join->NumNonZeros(), 1024u);
  EXPECT_DOUBLE_EQ(join->Density(), 1.0);
}

TEST(JeStitchTest, Validation) {
  PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1};
  partition.side2_modes = {2};
  SubEnsembles subs;
  subs.x1 = tensor::SparseTensor({2, 2});
  subs.x2 = tensor::SparseTensor({2, 2});
  subs.x1.AppendEntry({0, 0}, 1.0);
  // Uncoalesced input rejected.
  EXPECT_FALSE(JeStitch(subs, partition, {2, 2, 2}).ok());
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();
  // Shape arity mismatch rejected.
  EXPECT_FALSE(JeStitch(subs, partition, {2, 2}).ok());
}

// -------------------------------------------------------------- RowSelect

TEST(RowSelectTest, PicksHigherEnergyRows) {
  linalg::Matrix u1(2, 2, {3, 4, 0.1, 0.1});
  linalg::Matrix u2(2, 2, {0.1, 0.1, 5, 12});
  auto selected = RowSelect(u1, u2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ((*selected)(0, 0), 3.0);
  EXPECT_EQ((*selected)(0, 1), 4.0);
  EXPECT_EQ((*selected)(1, 0), 5.0);
  EXPECT_EQ((*selected)(1, 1), 12.0);
}

TEST(RowSelectTest, TieBreaksTowardFirst) {
  linalg::Matrix u1(1, 2, {1, 0});
  linalg::Matrix u2(1, 2, {0, 1});
  auto selected = RowSelect(u1, u2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ((*selected)(0, 0), 1.0);
}

TEST(RowSelectTest, ShapeMismatchRejected) {
  EXPECT_FALSE(RowSelect(linalg::Matrix(2, 2), linalg::Matrix(2, 3)).ok());
  EXPECT_FALSE(RowSelect(linalg::Matrix(2, 2), linalg::Matrix(3, 2)).ok());
}

// ------------------------------------------------------------------ M2TD

class M2tdMethodTest : public ::testing::TestWithParam<M2tdMethod> {};

TEST_P(M2tdMethodTest, ProducesValidDecomposition) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions options;
  options.method = GetParam();
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tucker.factors.size(), 5u);
  EXPECT_EQ(result->tucker.core.shape(),
            (std::vector<std::uint64_t>{2, 2, 2, 2, 2}));
  for (const auto& factor : result->tucker.factors) {
    EXPECT_EQ(factor.rows(), 4u);
    EXPECT_EQ(factor.cols(), 2u);
  }
  EXPECT_GT(result->join_nnz, 0u);
  auto reconstructed = tensor::Reconstruct(result->tucker);
  ASSERT_TRUE(reconstructed.ok());
  EXPECT_EQ(reconstructed->shape(), model->space().Shape());
  for (std::uint64_t i = 0; i < reconstructed->NumElements(); ++i) {
    ASSERT_TRUE(std::isfinite(reconstructed->flat(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, M2tdMethodTest,
                         ::testing::Values(M2tdMethod::kAvg,
                                           M2tdMethod::kConcat,
                                           M2tdMethod::kSelect,
                                           M2tdMethod::kWeighted),
                         [](const auto& info) {
                           switch (info.param) {
                             case M2tdMethod::kAvg:
                               return "Avg";
                             case M2tdMethod::kConcat:
                               return "Concat";
                             case M2tdMethod::kSelect:
                               return "Select";
                             case M2tdMethod::kWeighted:
                               return "Weighted";
                           }
                           return "?";
                         });

TEST(M2tdTest, MethodNames) {
  EXPECT_STREQ(M2tdMethodName(M2tdMethod::kAvg), "M2TD-AVG");
  EXPECT_STREQ(M2tdMethodName(M2tdMethod::kConcat), "M2TD-CONCAT");
  EXPECT_STREQ(M2tdMethodName(M2tdMethod::kSelect), "M2TD-SELECT");
}

TEST(M2tdTest, BeatsConventionalSamplingOnPendulum) {
  // The paper's headline claim at miniature scale: with the same budget,
  // M2TD reconstructs the full space orders of magnitude better than
  // random sampling.
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 5;
  model_options.time_resolution = 5;
  auto model_or = ensemble::MakeDoublePendulumModel(model_options);
  ASSERT_TRUE(model_or.ok());
  auto model = std::move(model_or).ValueOrDie();

  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());

  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto m2td_outcome = RunM2td(model.get(), *ground_truth, *partition,
                              M2tdMethod::kSelect, 3, {});
  ASSERT_TRUE(m2td_outcome.ok());

  // Same simulation budget for the conventional scheme.
  const std::uint64_t budget =
      m2td_outcome->budget_cells / model->space().Resolution(0) + 1;
  auto random_outcome =
      RunConventional(model.get(), *ground_truth,
                      ensemble::ConventionalScheme::kRandom, budget, 3, 99);
  ASSERT_TRUE(random_outcome.ok());

  EXPECT_GT(m2td_outcome->accuracy, 0.2);
  EXPECT_GT(m2td_outcome->accuracy, 10.0 * random_outcome->accuracy);
}

TEST(M2tdTest, SelectAtLeastAsGoodAsAvgHere) {
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 5;
  model_options.time_resolution = 5;
  auto model_or = ensemble::MakeDoublePendulumModel(model_options);
  ASSERT_TRUE(model_or.ok());
  auto model = std::move(model_or).ValueOrDie();
  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto select = RunM2td(model.get(), *ground_truth, *partition,
                        M2tdMethod::kSelect, 3, {});
  auto avg = RunM2td(model.get(), *ground_truth, *partition,
                     M2tdMethod::kAvg, 3, {});
  ASSERT_TRUE(select.ok() && avg.ok());
  EXPECT_GE(select->accuracy, avg->accuracy - 0.05);
}

TEST(M2tdTest, Validation) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions options;
  options.ranks = {2, 2};  // wrong arity
  EXPECT_FALSE(
      M2tdDecompose(*subs, *partition, model->space().Shape(), options).ok());
}

TEST(M2tdTest, ZeroRankIsInvalidArgument) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  M2tdOptions options;
  options.ranks = {2, 2, 0, 2, 2};
  auto result =
      M2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- DM2TD

TEST(DM2tdTest, MatchesLocalM2td) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  for (M2tdMethod method :
       {M2tdMethod::kAvg, M2tdMethod::kConcat, M2tdMethod::kSelect}) {
    M2tdOptions local_options;
    local_options.method = method;
    local_options.ranks = std::vector<std::uint64_t>(5, 2);
    auto local = M2tdDecompose(*subs, *partition, model->space().Shape(),
                               local_options);
    ASSERT_TRUE(local.ok());

    DM2tdOptions dist_options;
    dist_options.method = method;
    dist_options.ranks = local_options.ranks;
    dist_options.num_workers = 3;
    auto dist = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                               dist_options);
    ASSERT_TRUE(dist.ok());

    EXPECT_EQ(dist->join_nnz, local->join_nnz);
    auto r_local = tensor::Reconstruct(local->tucker);
    auto r_dist = tensor::Reconstruct(dist->tucker);
    ASSERT_TRUE(r_local.ok() && r_dist.ok());
    EXPECT_NEAR(tensor::DenseTensor::FrobeniusDistance(*r_local, *r_dist),
                0.0, 1e-8)
        << M2tdMethodName(method);
  }
}

TEST(DM2tdTest, ZeroJoinMatchesLocal) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  SubEnsembleOptions sub_options;
  sub_options.cell_density = 0.4;
  auto subs = BuildSubEnsembles(model.get(), *partition, sub_options);
  ASSERT_TRUE(subs.ok());

  M2tdOptions local_options;
  local_options.ranks = std::vector<std::uint64_t>(5, 2);
  local_options.stitch.zero_join = true;
  auto local = M2tdDecompose(*subs, *partition, model->space().Shape(),
                             local_options);
  ASSERT_TRUE(local.ok());

  DM2tdOptions dist_options;
  dist_options.ranks = local_options.ranks;
  dist_options.stitch.zero_join = true;
  dist_options.num_workers = 2;
  auto dist = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                             dist_options);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->join_nnz, local->join_nnz);
  auto r_local = tensor::Reconstruct(local->tucker);
  auto r_dist = tensor::Reconstruct(dist->tucker);
  ASSERT_TRUE(r_local.ok() && r_dist.ok());
  EXPECT_NEAR(tensor::DenseTensor::FrobeniusDistance(*r_local, *r_dist), 0.0,
              1e-8);
}

TEST(DM2tdTest, WorkerCountDoesNotChangeResult) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);

  tensor::DenseTensor baseline;
  for (int workers : {1, 2, 6}) {
    options.num_workers = workers;
    auto result = DM2tdDecompose(*subs, *partition, model->space().Shape(),
                                 options);
    ASSERT_TRUE(result.ok());
    auto reconstructed = tensor::Reconstruct(result->tucker);
    ASSERT_TRUE(reconstructed.ok());
    if (workers == 1) {
      baseline = std::move(*reconstructed);
    } else {
      EXPECT_NEAR(
          tensor::DenseTensor::FrobeniusDistance(baseline, *reconstructed),
          0.0, 1e-8)
          << "workers=" << workers;
    }
  }
}

TEST(DM2tdTest, ReportsPhaseStats) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 2;
  auto result =
      DM2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(result.ok());
  // Both phases shuffle every cell once; phase 1 emits one Gram per
  // sub-tensor mode.
  const std::uint64_t cells = subs->x1.NumNonZeros() + subs->x2.NumNonZeros();
  EXPECT_EQ(result->phase1.intermediate_pairs, cells);
  EXPECT_EQ(result->phase1.output_records,
            subs->x1.num_modes() + subs->x2.num_modes());
  EXPECT_EQ(result->phase2.intermediate_pairs, cells);
  EXPECT_GT(result->phase3.intermediate_pairs, 0u);
  EXPECT_GE(result->TotalSeconds(), 0.0);
}

TEST(DM2tdTest, NonPositiveWorkerCountIsInvalidArgument) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  for (int workers : {0, -1}) {
    options.num_workers = workers;
    auto result =
        DM2tdDecompose(*subs, *partition, model->space().Shape(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

void ExpectZeroRankRejected(DistBackend backend) {
  auto model = SmallModel();
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  DM2tdOptions options;
  options.ranks = {2, 2, 0, 2, 2};
  options.num_workers = 1;
  options.backend = backend;
  options.process.worker_binary = M2TD_WORKER_BIN;
  auto result =
      DM2tdDecompose(*subs, *partition, model->space().Shape(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DM2tdTest, ZeroRankIsInvalidArgumentOnThreadBackend) {
  ExpectZeroRankRejected(DistBackend::kThread);
}

TEST(DM2tdTest, ZeroRankIsInvalidArgumentOnProcessBackend) {
  ExpectZeroRankRejected(DistBackend::kProcess);
}

// x1's mode-0 matricization has 1024^7 > 2^64 columns, so its Gram cannot
// be built: every path must return InvalidArgument, never abort.
TEST(DM2tdTest, UnrepresentableGramIsInvalidArgumentOnBothBackends) {
  PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1, 2, 3, 4, 5, 6, 7};
  partition.side2_modes = {8};
  const std::vector<std::uint64_t> full_shape(9, 1024);
  SubEnsembles subs;
  subs.x1 = tensor::SparseTensor(std::vector<std::uint64_t>(8, 1024));
  subs.x2 = tensor::SparseTensor({1024, 1024});
  subs.x1.AppendEntry({0, 1, 2, 3, 4, 5, 6, 7}, 1.0);
  subs.x1.AppendEntry({1, 7, 6, 5, 4, 3, 2, 1}, 2.0);
  subs.x2.AppendEntry({0, 3}, 3.0);
  subs.x2.AppendEntry({1, 9}, 4.0);
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();

  M2tdOptions local_options;
  local_options.ranks = std::vector<std::uint64_t>(9, 1);
  auto local = M2tdDecompose(subs, partition, full_shape, local_options);
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(local.status().code(), StatusCode::kInvalidArgument);

  for (DistBackend backend : {DistBackend::kThread, DistBackend::kProcess}) {
    DM2tdOptions options;
    options.ranks = local_options.ranks;
    options.num_workers = 2;
    options.backend = backend;
    options.process.worker_binary = M2TD_WORKER_BIN;
    auto result = DM2tdDecompose(subs, partition, full_shape, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  }
}

// ------------------------------------------------------------- Experiment

TEST(ExperimentTest, UniformRanks) {
  auto model = SmallModel();
  EXPECT_EQ(UniformRanks(*model, 3),
            (std::vector<std::uint64_t>(5, 3)));
}

TEST(ExperimentTest, RunConventionalPopulatesOutcome) {
  auto model = SmallModel();
  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());
  auto outcome =
      RunConventional(model.get(), *ground_truth,
                      ensemble::ConventionalScheme::kGrid, 16, 2, 3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->scheme, "Grid");
  EXPECT_GT(outcome->nnz, 0u);
  EXPECT_GE(outcome->decompose_seconds, 0.0);
  EXPECT_LE(outcome->accuracy, 1.0);
}

TEST(ExperimentTest, RunUnionBaselineScoresUnionTensor) {
  auto model = SmallModel();
  auto ground_truth = ensemble::BuildFullTensor(model.get());
  ASSERT_TRUE(ground_truth.ok());
  auto partition = MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  // Union the sub-ensembles into one 5-mode tensor (fixing constants for
  // the missing modes), as the naive alternative would.
  tensor::SparseTensor union_tensor(model->space().Shape());
  const auto& space = model->space();
  for (int side = 1; side <= 2; ++side) {
    const auto& sub = side == 1 ? subs->x1 : subs->x2;
    const auto modes = partition->SubTensorModes(side);
    std::vector<std::uint32_t> idx(5);
    for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
      for (std::size_t m = 0; m < 5; ++m) idx[m] = space.DefaultIndex(m);
      for (std::size_t m = 0; m < modes.size(); ++m) {
        idx[modes[m]] = sub.Index(m, e);
      }
      union_tensor.AppendEntry(idx, sub.Value(e));
    }
  }
  union_tensor.SortAndCoalesce(tensor::CoalescePolicy::kMean);
  auto outcome = RunUnionBaseline(union_tensor, *ground_truth, 2, "Union");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->scheme, "Union");
  EXPECT_LE(outcome->accuracy, 1.0);
}

}  // namespace
}  // namespace m2td::core
