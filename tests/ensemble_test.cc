#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ensemble/parameter_space.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "sim/pendulum.h"
#include "util/random.h"

namespace m2td::ensemble {
namespace {

ModelOptions SmallOptions() {
  ModelOptions options;
  options.parameter_resolution = 4;
  options.time_resolution = 3;
  options.dt = 0.01;
  options.record_every = 5;
  return options;
}

// -------------------------------------------------------- ParameterSpace

TEST(ParameterSpaceTest, CreateValidation) {
  EXPECT_FALSE(ParameterSpace::Create({}).ok());
  EXPECT_FALSE(
      ParameterSpace::Create({ParameterDef{"a", 0.0, 1.0, 0}}).ok());
  EXPECT_FALSE(
      ParameterSpace::Create({ParameterDef{"a", 2.0, 1.0, 3}}).ok());
  EXPECT_TRUE(
      ParameterSpace::Create({ParameterDef{"a", 0.0, 1.0, 3}}).ok());
}

TEST(ParameterSpaceTest, ValueGridIsLinear) {
  auto space = ParameterSpace::Create({ParameterDef{"a", 0.0, 2.0, 5}});
  ASSERT_TRUE(space.ok());
  EXPECT_DOUBLE_EQ(space->Value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(space->Value(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(space->Value(0, 4), 2.0);
}

TEST(ParameterSpaceTest, SingletonResolutionSitsAtMin) {
  auto space = ParameterSpace::Create({ParameterDef{"a", 3.0, 9.0, 1}});
  ASSERT_TRUE(space.ok());
  EXPECT_DOUBLE_EQ(space->Value(0, 0), 3.0);
}

TEST(ParameterSpaceTest, ShapeCellsDefaultsAndLookup) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 3},
      ParameterDef{"x", 0.0, 1.0, 4},
      ParameterDef{"y", 0.0, 1.0, 5},
  });
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->Shape(), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(space->NumCells(), 60u);
  EXPECT_EQ(space->DefaultIndex(1), 2u);
}

TEST(ParameterSpaceTest, ValuesVector) {
  auto space = ParameterSpace::Create({
      ParameterDef{"a", 0.0, 1.0, 2},
      ParameterDef{"b", 0.0, 10.0, 3},
  });
  ASSERT_TRUE(space.ok());
  const std::vector<double> values = space->Values({1, 2});
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 10.0);
}

// ------------------------------------------------------ SimulationModel

TEST(SimulationModelTest, DoublePendulumModelBasics) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->space().num_modes(), 5u);
  EXPECT_EQ((*model)->space().def(0).name, "t");
  EXPECT_EQ((*model)->space().Resolution(0), 3u);
  EXPECT_EQ((*model)->space().Resolution(1), 4u);
  EXPECT_EQ((*model)->name(), "double pendulum");
}

TEST(SimulationModelTest, ReferenceCellIsZeroDistance) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  const ParameterSpace& space = (*model)->space();
  std::vector<std::uint32_t> idx(space.num_modes());
  for (std::size_t m = 0; m < space.num_modes(); ++m) {
    idx[m] = space.DefaultIndex(m);
  }
  // The reference simulation compared against itself at any timestamp.
  for (std::uint32_t t = 0; t < space.Resolution(0); ++t) {
    idx[0] = t;
    EXPECT_NEAR((*model)->Cell(idx), 0.0, 1e-12);
  }
}

TEST(SimulationModelTest, NonReferenceCellsArePositive) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  std::vector<std::uint32_t> idx = {2, 0, 0, 0, 0};
  EXPECT_GT((*model)->Cell(idx), 0.0);
}

TEST(SimulationModelTest, TrajectoryCacheCountsSimulations) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->SimulationsRun(), 0u);
  std::vector<std::uint32_t> idx = {0, 1, 2, 3, 0};
  (*model)->Cell(idx);
  EXPECT_EQ((*model)->SimulationsRun(), 1u);
  idx[0] = 2;  // same parameters, different timestamp: cached
  (*model)->Cell(idx);
  EXPECT_EQ((*model)->SimulationsRun(), 1u);
  idx[1] = 0;  // different parameters: new simulation
  (*model)->Cell(idx);
  EXPECT_EQ((*model)->SimulationsRun(), 2u);
  (*model)->ClearCache();
  EXPECT_EQ((*model)->SimulationsRun(), 0u);
}

TEST(SimulationModelTest, AllThreeModelsConstructAndEvaluate) {
  for (auto maker :
       {MakeDoublePendulumModel, MakeTriplePendulumModel, MakeLorenzModel}) {
    auto model = maker(SmallOptions());
    ASSERT_TRUE(model.ok());
    std::vector<std::uint32_t> idx = {1, 1, 2, 3, 0};
    const double v = (*model)->Cell(idx);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

TEST(SimulationModelTest, BuildFullTensorMatchesCells) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  auto full = BuildFullTensor(model->get());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->shape(), (*model)->space().Shape());
  // Spot check a few cells.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint32_t> idx((*model)->space().num_modes());
    for (std::size_t m = 0; m < idx.size(); ++m) {
      idx[m] = static_cast<std::uint32_t>(
          rng.UniformInt((*model)->space().Resolution(m)));
    }
    EXPECT_DOUBLE_EQ(full->at(idx), (*model)->Cell(idx));
  }
  EXPECT_FALSE(BuildFullTensor(nullptr).ok());
}

/// Forwards to a model and counts how often SimulateCells is offered each
/// parameter configuration (a cell with its time index dropped).
class OfferCountingModel : public SimulationModel {
 public:
  explicit OfferCountingModel(SimulationModel* inner) : inner_(inner) {}

  const ParameterSpace& space() const override { return inner_->space(); }
  std::size_t time_mode() const override { return inner_->time_mode(); }
  double Cell(const std::vector<std::uint32_t>& indices) override {
    return inner_->Cell(indices);
  }
  void SimulateCells(
      const std::vector<std::vector<std::uint32_t>>& cells) override {
    for (std::vector<std::uint32_t> cell : cells) {
      cell.erase(cell.begin() + static_cast<std::ptrdiff_t>(time_mode()));
      ++offers_[cell];
    }
    inner_->SimulateCells(cells);
  }
  std::uint64_t SimulationsRun() const override {
    return inner_->SimulationsRun();
  }
  const std::string& name() const override { return inner_->name(); }

  const std::map<std::vector<std::uint32_t>, int>& offers() const {
    return offers_;
  }

 private:
  SimulationModel* inner_;
  std::map<std::vector<std::uint32_t>, int> offers_;
};

TEST(SimulationModelTest, BuildFullTensorOffersEachConfigurationOnce) {
  ModelOptions options = SmallOptions();
  options.time_resolution = 6;
  auto model = MakeDoublePendulumModel(options);
  ASSERT_TRUE(model.ok());
  OfferCountingModel counting(model->get());
  auto full = BuildFullTensor(&counting);
  ASSERT_TRUE(full.ok());

  std::uint64_t configurations = 1;
  for (std::size_t m = 1; m < counting.space().num_modes(); ++m) {
    configurations *= counting.space().Resolution(m);
  }
  EXPECT_EQ(counting.offers().size(), configurations);
  for (const auto& [configuration, offers] : counting.offers()) {
    EXPECT_EQ(offers, 1) << "configuration offered " << offers << " times";
  }
  EXPECT_EQ(counting.SimulationsRun(), configurations);
}

// ------------------------------------------------ lockstep SimulateCells

/// Cells of the first `count` parameter configurations of `space` in
/// linear order (time index 0), each listed twice.
std::vector<std::vector<std::uint32_t>> DistinctCells(
    const ParameterSpace& space, std::size_t count) {
  std::vector<std::vector<std::uint32_t>> cells;
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<std::uint32_t> cell(space.num_modes(), 0);
    std::size_t rest = k;
    for (std::size_t m = space.num_modes(); m-- > 1;) {
      cell[m] = static_cast<std::uint32_t>(rest % space.Resolution(m));
      rest /= space.Resolution(m);
    }
    cells.push_back(cell);
    cells.push_back(cell);
  }
  return cells;
}

/// memcmp equality of two cell values (NaN included).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimulateCellsTest, EveryBatchCountMatchesCellByCellBitForBit) {
  for (auto maker : {MakeDoublePendulumModel, MakeTriplePendulumModel,
                     MakeLorenzModel, MakeSeirModel}) {
    for (std::size_t count = 1; count <= 2 * sim::kBatchLanes + 1; ++count) {
      auto batched = maker(SmallOptions());
      auto alone = maker(SmallOptions());
      ASSERT_TRUE(batched.ok() && alone.ok());
      const auto cells = DistinctCells((*batched)->space(), count);
      (*batched)->SimulateCells(cells);
      EXPECT_EQ((*batched)->SimulationsRun(), count) << (*batched)->name();
      for (std::vector<std::uint32_t> cell : cells) {
        for (cell[0] = 0; cell[0] < (*batched)->space().Resolution(0);
             ++cell[0]) {
          ASSERT_TRUE(SameBits((*batched)->Cell(cell), (*alone)->Cell(cell)))
              << (*batched)->name() << ", " << count << " configurations";
        }
      }
      EXPECT_EQ((*batched)->SimulationsRun(), count);
      EXPECT_EQ((*alone)->SimulationsRun(), count);
    }
  }
}

TEST(SimulateCellsTest, FailingMemberPoisonsItsFiberInFirstAppearanceOrder) {
  const std::size_t count = 2 * sim::kBatchLanes + 1;
  auto batched = MakeDoublePendulumModel(SmallOptions());
  auto alone = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(batched.ok() && alone.ok());
  const auto cells = DistinctCells((*batched)->space(), count);

  // The third configuration simulated fails, whether a lockstep batch or
  // Cell() meets it.
  ASSERT_TRUE(robust::ArmFailpointsFromString("sim.trajectory:after=2,times=1")
                  .ok());
  (*batched)->SimulateCells(cells);
  EXPECT_EQ(robust::FailpointFires("sim.trajectory"), 1u);
  ASSERT_TRUE(robust::ArmFailpointsFromString("sim.trajectory:after=2,times=1")
                  .ok());
  for (const auto& cell : cells) (*alone)->Cell(cell);
  EXPECT_EQ(robust::FailpointFires("sim.trajectory"), 1u);
  robust::DisarmAllFailpoints();

  EXPECT_EQ((*batched)->SimulationsRun(), count);
  EXPECT_EQ((*alone)->SimulationsRun(), count);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    std::vector<std::uint32_t> cell = cells[k];
    for (cell[0] = 0; cell[0] < (*batched)->space().Resolution(0); ++cell[0]) {
      const double value = (*batched)->Cell(cell);
      EXPECT_EQ(std::isnan(value), k / 2 == 2) << "configuration " << k / 2;
      EXPECT_TRUE(SameBits(value, (*alone)->Cell(cell)));
    }
  }
}

TEST(SimulateCellsTest, CancelledBatchCachesNothingAndEndsTheCall) {
  // Double pendulums whose 80-step trajectories pass the integrator's
  // cancellation check at step 64; the factory cancels the ambient token
  // as the second lockstep batch starts.
  ModelOptions options = SmallOptions();
  options.time_resolution = 5;
  options.record_every = 20;
  auto shape = MakeDoublePendulumModel(options);
  ASSERT_TRUE(shape.ok());
  const ParameterSpace& space = (*shape)->space();
  sim::Rk4Options rk4;
  rk4.dt = options.dt;
  rk4.record_every = options.record_every;
  rk4.num_steps = 80;
  robust::CancelSource source;
  int calls = 0;
  auto factory = [&](const std::vector<std::vector<double>>& configs) {
    if (++calls == 3) source.Cancel();  // call 1 is Create's reference run
    std::vector<sim::ChainPendulum> pendulums;
    std::vector<std::vector<double>> initial;
    for (const std::vector<double>& p : configs) {
      pendulums.push_back(*sim::ChainPendulum::Create({p[2], p[3]}));
      initial.push_back(pendulums.back().InitialState({p[0], p[1]}));
    }
    std::vector<const sim::OdeSystem*> systems;
    for (const auto& pendulum : pendulums) systems.push_back(&pendulum);
    return sim::IntegrateRk4Batch(systems, initial, rk4);
  };
  std::vector<double> reference;
  for (std::size_t m = 1; m < space.num_modes(); ++m) {
    reference.push_back(space.Value(m, space.DefaultIndex(m)));
  }
  auto model = DynamicalSystemModel::Create("cancel", space, factory,
                                            reference);
  ASSERT_TRUE(model.ok());
  const auto cells = DistinctCells(space, 3 * sim::kBatchLanes);
  const std::vector<std::uint32_t>& second_batch = cells[2 * sim::kBatchLanes];
  {
    robust::CancelScope scope(source.token());
    (*model)->SimulateCells(cells);
    EXPECT_EQ(calls, 3) << "the cancelled batch must end the call";
    EXPECT_EQ((*model)->SimulationsRun(), sim::kBatchLanes);
    // Still cancelled: Cell() simulates again, reads NaN, caches nothing.
    EXPECT_TRUE(std::isnan((*model)->Cell(second_batch)));
    EXPECT_EQ((*model)->SimulationsRun(), sim::kBatchLanes);
  }
  EXPECT_TRUE(std::isfinite((*model)->Cell(second_batch)));
  EXPECT_EQ((*model)->SimulationsRun(), sim::kBatchLanes + 1);
}

// --------------------------------------------------------------- Sampling

TEST(SamplingTest, SchemeNames) {
  EXPECT_STREQ(ConventionalSchemeName(ConventionalScheme::kRandom), "Random");
  EXPECT_STREQ(ConventionalSchemeName(ConventionalScheme::kGrid), "Grid");
  EXPECT_STREQ(ConventionalSchemeName(ConventionalScheme::kSlice), "Slice");
}

class SamplingSchemeTest
    : public ::testing::TestWithParam<ConventionalScheme> {};

TEST_P(SamplingSchemeTest, SelectsDistinctCombosWithinBudget) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 3},
      ParameterDef{"a", 0.0, 1.0, 5},
      ParameterDef{"b", 0.0, 1.0, 5},
      ParameterDef{"c", 0.0, 1.0, 5},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(7);
  auto combos =
      SelectParameterCombinations(*space, 0, GetParam(), 40, &rng);
  ASSERT_TRUE(combos.ok());
  EXPECT_LE(combos->size(), 40u);
  EXPECT_GE(combos->size(), 10u);  // every scheme should use most budget
  std::set<std::vector<std::uint32_t>> unique(combos->begin(), combos->end());
  EXPECT_EQ(unique.size(), combos->size());
  for (const auto& combo : *combos) {
    ASSERT_EQ(combo.size(), 3u);
    EXPECT_LT(combo[0], 5u);
    EXPECT_LT(combo[1], 5u);
    EXPECT_LT(combo[2], 5u);
  }
}

TEST_P(SamplingSchemeTest, BudgetLargerThanSpaceClamps) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 3},
      ParameterDef{"b", 0.0, 1.0, 3},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(7);
  auto combos =
      SelectParameterCombinations(*space, 0, GetParam(), 1000, &rng);
  ASSERT_TRUE(combos.ok());
  EXPECT_EQ(combos->size(), 9u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SamplingSchemeTest,
                         ::testing::Values(ConventionalScheme::kRandom,
                                           ConventionalScheme::kGrid,
                                           ConventionalScheme::kSlice,
                                           ConventionalScheme::kLatinHypercube),
                         [](const auto& info) {
                           return ConventionalSchemeName(info.param);
                         });

TEST(SamplingTest, LatinHypercubeCoversEveryValueOncePerMode) {
  // With budget == resolution, LHS must hit every grid value of every
  // parameter exactly once (one stratum per value).
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 8},
      ParameterDef{"b", 0.0, 1.0, 8},
      ParameterDef{"c", 0.0, 1.0, 8},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(3);
  auto combos = SelectParameterCombinations(
      *space, 0, ConventionalScheme::kLatinHypercube, 8, &rng);
  ASSERT_TRUE(combos.ok());
  ASSERT_EQ(combos->size(), 8u);
  for (std::size_t m = 0; m < 3; ++m) {
    std::set<std::uint32_t> values;
    for (const auto& combo : *combos) values.insert(combo[m]);
    EXPECT_EQ(values.size(), 8u) << "mode " << m;
  }
}

TEST(SamplingTest, LatinHypercubeDropsDuplicatesWhenOverSampled) {
  // Budget beyond a mode's resolution forces repeats per column; the
  // combination set must still be duplicate-free.
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 3},
      ParameterDef{"b", 0.0, 1.0, 3},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(5);
  auto combos = SelectParameterCombinations(
      *space, 0, ConventionalScheme::kLatinHypercube, 9, &rng);
  ASSERT_TRUE(combos.ok());
  std::set<std::vector<std::uint32_t>> unique(combos->begin(), combos->end());
  EXPECT_EQ(unique.size(), combos->size());
  EXPECT_LE(combos->size(), 9u);
}

TEST(SamplingTest, GridIsExactSubGridCrossProduct) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 9},
      ParameterDef{"b", 0.0, 1.0, 9},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(7);
  auto combos = SelectParameterCombinations(
      *space, 0, ConventionalScheme::kGrid, 9, &rng);
  ASSERT_TRUE(combos.ok());
  EXPECT_EQ(combos->size(), 9u);  // 3 x 3 sub-grid
  std::set<std::uint32_t> a_values, b_values;
  for (const auto& combo : *combos) {
    a_values.insert(combo[0]);
    b_values.insert(combo[1]);
  }
  EXPECT_EQ(a_values.size(), 3u);
  EXPECT_EQ(b_values.size(), 3u);
}

TEST(SamplingTest, SliceCoversWholeSlices) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 6},
      ParameterDef{"b", 0.0, 1.0, 6},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(7);
  // Budget = exactly one slice (6 combos).
  auto combos = SelectParameterCombinations(
      *space, 0, ConventionalScheme::kSlice, 6, &rng);
  ASSERT_TRUE(combos.ok());
  ASSERT_EQ(combos->size(), 6u);
  // One of the two coordinates must be constant across the slice.
  std::set<std::uint32_t> a_values, b_values;
  for (const auto& combo : *combos) {
    a_values.insert(combo[0]);
    b_values.insert(combo[1]);
  }
  EXPECT_TRUE(a_values.size() == 1 || b_values.size() == 1);
}

TEST(SamplingTest, InputValidation) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0.0, 1.0, 2},
      ParameterDef{"a", 0.0, 1.0, 3},
  });
  ASSERT_TRUE(space.ok());
  Rng rng(7);
  EXPECT_FALSE(SelectParameterCombinations(*space, 9,
                                           ConventionalScheme::kRandom, 5,
                                           &rng)
                   .ok());
  EXPECT_FALSE(SelectParameterCombinations(*space, 0,
                                           ConventionalScheme::kRandom, 0,
                                           &rng)
                   .ok());
  EXPECT_FALSE(SelectParameterCombinations(*space, 0,
                                           ConventionalScheme::kRandom, 5,
                                           nullptr)
                   .ok());
}

TEST(SamplingTest, BuildConventionalEnsembleFillsTimeFibers) {
  auto model = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model.ok());
  Rng rng(11);
  auto ensemble = BuildConventionalEnsemble(
      model->get(), ConventionalScheme::kRandom, 10, &rng);
  ASSERT_TRUE(ensemble.ok());
  // 10 simulations x 3 timestamps.
  EXPECT_EQ(ensemble->NumNonZeros(), 30u);
  EXPECT_EQ(ensemble->shape(), (*model)->space().Shape());
  EXPECT_TRUE(ensemble->IsSorted());
  EXPECT_EQ((*model)->SimulationsRun(), 10u);
}

TEST(SamplingTest, EnsembleIsDeterministicForSeed) {
  auto model1 = MakeDoublePendulumModel(SmallOptions());
  auto model2 = MakeDoublePendulumModel(SmallOptions());
  ASSERT_TRUE(model1.ok() && model2.ok());
  Rng rng1(13), rng2(13);
  auto e1 = BuildConventionalEnsemble(model1->get(),
                                      ConventionalScheme::kRandom, 8, &rng1);
  auto e2 = BuildConventionalEnsemble(model2->get(),
                                      ConventionalScheme::kRandom, 8, &rng2);
  ASSERT_TRUE(e1.ok() && e2.ok());
  ASSERT_EQ(e1->NumNonZeros(), e2->NumNonZeros());
  for (std::uint64_t e = 0; e < e1->NumNonZeros(); ++e) {
    EXPECT_EQ(e1->Value(e), e2->Value(e));
  }
}

}  // namespace
}  // namespace m2td::ensemble
