// Validation-path tests for the ensemble model layer: construction
// contracts of DynamicalSystemModel and the built-in factories.

#include <cmath>

#include <gtest/gtest.h>

#include "ensemble/simulation_model.h"
#include "sim/ode.h"

namespace m2td::ensemble {
namespace {

sim::Trajectory FakeTrajectory(std::size_t samples) {
  sim::Trajectory trajectory;
  for (std::size_t s = 0; s < samples; ++s) {
    trajectory.times.push_back(static_cast<double>(s));
    trajectory.observables.push_back({static_cast<double>(s)});
  }
  return trajectory;
}

/// Adapts a one-configuration factory to the model's batch signature.
template <typename Simulate>
DynamicalSystemModel::TrajectoryFactory PerConfig(Simulate simulate) {
  return [simulate](const std::vector<std::vector<double>>& configs) {
    std::vector<Result<sim::Trajectory>> trajectories;
    for (const std::vector<double>& p : configs) {
      trajectories.push_back(simulate(p));
    }
    return trajectories;
  };
}

TEST(ModelValidationTest, RequiresTimeModePlusParameters) {
  auto space = ParameterSpace::Create({ParameterDef{"t", 0, 1, 3}});
  ASSERT_TRUE(space.ok());
  auto model = DynamicalSystemModel::Create(
      "x", *space,
      PerConfig([](const std::vector<double>&) -> Result<sim::Trajectory> {
        return FakeTrajectory(3);
      }),
      {});
  EXPECT_FALSE(model.ok());
}

TEST(ModelValidationTest, ReferenceParamArityChecked) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0, 1, 3},
      ParameterDef{"a", 0, 1, 2},
  });
  ASSERT_TRUE(space.ok());
  auto model = DynamicalSystemModel::Create(
      "x", *space,
      PerConfig([](const std::vector<double>&) -> Result<sim::Trajectory> {
        return FakeTrajectory(3);
      }),
      {0.5, 0.5});  // two reference params for one parameter mode
  EXPECT_FALSE(model.ok());
}

TEST(ModelValidationTest, TrajectoryLengthMustMatchTimeResolution) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0, 1, 5},
      ParameterDef{"a", 0, 1, 2},
  });
  ASSERT_TRUE(space.ok());
  auto model = DynamicalSystemModel::Create(
      "x", *space,
      PerConfig([](const std::vector<double>&) -> Result<sim::Trajectory> {
        return FakeTrajectory(3);  // 3 != 5
      }),
      {0.5});
  EXPECT_FALSE(model.ok());
}

TEST(ModelValidationTest, FactoryErrorSurfacesAtCreate) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0, 1, 3},
      ParameterDef{"a", 0, 1, 2},
  });
  ASSERT_TRUE(space.ok());
  auto model = DynamicalSystemModel::Create(
      "x", *space,
      PerConfig([](const std::vector<double>&) -> Result<sim::Trajectory> {
        return Status::Internal("boom");
      }),
      {0.5});
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
}

TEST(ModelValidationTest, ValidCustomModelEvaluates) {
  auto space = ParameterSpace::Create({
      ParameterDef{"t", 0, 2, 3},
      ParameterDef{"a", 0, 1, 4},
  });
  ASSERT_TRUE(space.ok());
  // Observable = (a * t); reference a = midpoint value.
  auto factory = [](const std::vector<double>& p)
      -> Result<sim::Trajectory> {
    sim::Trajectory trajectory;
    for (int s = 0; s < 3; ++s) {
      trajectory.times.push_back(s);
      trajectory.observables.push_back({p[0] * s});
    }
    return trajectory;
  };
  auto model = DynamicalSystemModel::Create("toy", *space, PerConfig(factory),
                                            {space->Value(1, 2)});
  ASSERT_TRUE(model.ok());
  // Cell distance = |a*t - a_ref*t|.
  const double a0 = space->Value(1, 0);
  const double a_ref = space->Value(1, 2);
  EXPECT_NEAR((*model)->Cell({2, 0}), std::fabs(a0 - a_ref) * 2.0, 1e-12);
  EXPECT_NEAR((*model)->Cell({0, 0}), 0.0, 1e-12);
}

TEST(ModelValidationTest, SeirFactoryHonorsResolutions) {
  ModelOptions options;
  options.parameter_resolution = 3;
  options.time_resolution = 6;
  auto model = MakeSeirModel(options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->space().Resolution(0), 6u);
  for (std::size_t m = 1; m < 5; ++m) {
    EXPECT_EQ((*model)->space().Resolution(m), 3u);
  }
}

}  // namespace
}  // namespace m2td::ensemble
