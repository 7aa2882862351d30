#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/rk4_reference.h"
#include "sim/lorenz.h"
#include "sim/ode.h"
#include "robust/cancel.h"
#include "sim/pendulum.h"
#include "sim/seir.h"
#include "util/random.h"

namespace m2td::sim {
namespace {

// ---------------------------------------------------------------- RK4

/// dx/dt = -x has the exact solution x0 * exp(-t).
class ExponentialDecay : public OdeSystem {
 public:
  std::size_t StateSize() const override { return 1; }
  void Derivative(double /*t*/, const std::vector<double>& state,
                  std::vector<double>* d) const override {
    (*d)[0] = -state[0];
  }
};

TEST(Rk4Test, MatchesExponentialDecay) {
  ExponentialDecay system;
  Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 100;
  options.record_every = 10;
  auto trajectory = IntegrateRk4(system, {1.0}, options);
  ASSERT_TRUE(trajectory.ok());
  ASSERT_EQ(trajectory->NumSamples(), 11u);
  for (std::size_t s = 0; s < trajectory->NumSamples(); ++s) {
    const double t = trajectory->times[s];
    EXPECT_NEAR(trajectory->observables[s][0], std::exp(-t), 1e-9)
        << "sample " << s;
  }
}

TEST(Rk4Test, FourthOrderConvergence) {
  // Halving dt should reduce the endpoint error by ~2^4.
  ExponentialDecay system;
  auto endpoint_error = [&](double dt, int steps) {
    Rk4Options options;
    options.dt = dt;
    options.num_steps = steps;
    options.record_every = steps;
    auto trajectory = IntegrateRk4(system, {1.0}, options);
    EXPECT_TRUE(trajectory.ok());
    return std::fabs(trajectory->observables.back()[0] - std::exp(-dt * steps));
  };
  const double e1 = endpoint_error(0.2, 10);
  const double e2 = endpoint_error(0.1, 20);
  EXPECT_GT(e1 / e2, 10.0);  // ideal 16, allow slack
}

TEST(Rk4Test, InputValidation) {
  ExponentialDecay system;
  Rk4Options bad;
  bad.dt = -1.0;
  EXPECT_FALSE(IntegrateRk4(system, {1.0}, bad).ok());
  Rk4Options ok_options;
  EXPECT_FALSE(IntegrateRk4(system, {1.0, 2.0}, ok_options).ok());
  ok_options.num_steps = 0;
  EXPECT_FALSE(IntegrateRk4(system, {1.0}, ok_options).ok());
}

TEST(Rk4Test, ObservableDistanceIsEuclidean) {
  Trajectory a, b;
  a.times = {0.0};
  b.times = {0.0};
  a.observables = {{0.0, 0.0}};
  b.observables = {{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(ObservableDistance(a, b, 0), 5.0);
  EXPECT_DOUBLE_EQ(ObservableDistance(a, a, 0), 0.0);
}

// ------------------------------------------------------- lockstep batches

/// memcmp equality of two trajectories, sample by sample.
::testing::AssertionResult SameBits(const Trajectory& a, const Trajectory& b) {
  if (a.NumSamples() != b.NumSamples()) {
    return ::testing::AssertionFailure() << "sample counts differ";
  }
  if (std::memcmp(a.times.data(), b.times.data(),
                  a.times.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "times differ";
  }
  for (std::size_t s = 0; s < a.NumSamples(); ++s) {
    if (a.observables[s].size() != b.observables[s].size() ||
        std::memcmp(a.observables[s].data(), b.observables[s].data(),
                    a.observables[s].size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "sample " << s << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// One ensemble member of a model kind with random parameters: the system
/// the batch integrates, its scalar oracle, and its initial state.
struct RandomMember {
  std::unique_ptr<OdeSystem> system;
  std::unique_ptr<OdeSystem> oracle;
  std::vector<double> initial;
};

/// The four models of the ensemble layer, over their parameter ranges.
std::vector<std::pair<const char*, std::function<RandomMember(Rng*)>>>
ModelKinds() {
  return {
      {"double pendulum",
       [](Rng* rng) {
         auto p = ChainPendulum::Create(
             {rng->UniformDouble(0.5, 2.5), rng->UniformDouble(0.5, 2.5)});
         RandomMember m{std::make_unique<ChainPendulum>(*p),
                        std::make_unique<ChainPendulumReference>(*p),
                        p->InitialState({rng->UniformDouble(0.3, 1.8),
                                         rng->UniformDouble(0.3, 1.8)})};
         return m;
       }},
      {"triple pendulum",
       [](Rng* rng) {
         auto p = ChainPendulum::Create({1.0, 1.0, 1.0}, 9.81,
                                        rng->UniformDouble(0.0, 0.5));
         RandomMember m{std::make_unique<ChainPendulum>(*p),
                        std::make_unique<ChainPendulumReference>(*p),
                        p->InitialState({rng->UniformDouble(0.3, 1.8),
                                         rng->UniformDouble(0.3, 1.8),
                                         rng->UniformDouble(0.3, 1.8)})};
         return m;
       }},
      {"lorenz",
       [](Rng* rng) {
         const double sigma = rng->UniformDouble(8.0, 12.0);
         const double beta = rng->UniformDouble(2.0, 3.3);
         const double rho = rng->UniformDouble(24.0, 32.0);
         RandomMember m{
             std::make_unique<LorenzSystem>(sigma, rho, beta),
             std::make_unique<LorenzReference>(sigma, rho, beta),
             LorenzSystem::InitialState(1.0, 1.0,
                                        rng->UniformDouble(20.0, 30.0))};
         return m;
       }},
      {"seir",
       [](Rng* rng) {
         const double beta = rng->UniformDouble(0.15, 0.6);
         const double sigma = rng->UniformDouble(0.1, 0.5);
         const double gamma = rng->UniformDouble(0.05, 0.3);
         RandomMember m{
             std::make_unique<SeirSystem>(
                 *SeirSystem::Create(beta, sigma, gamma)),
             std::make_unique<SeirReference>(beta, sigma, gamma),
             *SeirSystem::InitialState(rng->UniformDouble(0.001, 0.05))};
         return m;
       }},
  };
}

TEST(Rk4BatchTest, EveryBatchCountMatchesScalarOracleBitForBit) {
  Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 150;
  options.record_every = 10;
  Rng rng(23);
  for (const auto& [name, make] : ModelKinds()) {
    for (std::size_t count = 1; count <= 2 * kBatchLanes + 1; ++count) {
      std::vector<RandomMember> members;
      std::vector<const OdeSystem*> systems;
      std::vector<std::vector<double>> initial;
      for (std::size_t k = 0; k < count; ++k) {
        members.push_back(make(&rng));
        systems.push_back(members.back().system.get());
        initial.push_back(members.back().initial);
      }
      const std::vector<Result<Trajectory>> batch =
          IntegrateRk4Batch(systems, initial, options);
      ASSERT_EQ(batch.size(), count);
      for (std::size_t k = 0; k < count; ++k) {
        auto oracle = IntegrateRk4Reference(*members[k].oracle,
                                            members[k].initial, options);
        auto alone =
            IntegrateRk4(*members[k].system, members[k].initial, options);
        ASSERT_TRUE(oracle.ok() && alone.ok() && batch[k].ok()) << name;
        EXPECT_TRUE(SameBits(*batch[k], *oracle))
            << name << ", member " << k << " of " << count;
        EXPECT_TRUE(SameBits(*alone, *oracle)) << name << ", member " << k;
      }
    }
  }
}

TEST(Rk4BatchTest, OneLaneDerivativeMatchesScalarOracleBitForBit) {
  // Derivative on a built-in system is BatchDerivative on a batch of one.
  Rng rng(5);
  for (const auto& [name, make] : ModelKinds()) {
    RandomMember member = make(&rng);
    const std::size_t n = member.system->StateSize();
    std::vector<double> state(n), got(n), want(n);
    for (double& x : state) x = rng.UniformDouble(-2.0, 2.0);
    member.system->Derivative(0.0, state, &got);
    member.oracle->Derivative(0.0, state, &want);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
        << name;
  }
}

TEST(Rk4BatchTest, WrongLengthMemberFailsAlone) {
  LorenzSystem a(10.0, 28.0, 8.0 / 3.0), b(9.0, 27.0, 2.5);
  Rk4Options options;
  const std::vector<const OdeSystem*> systems = {&a, &b, &a};
  auto results = IntegrateRk4Batch(
      systems, {{1.0, 1.0, 25.0}, {1.0, 1.0}, {1.0, 1.0, 21.0}}, options);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  auto first = IntegrateRk4Reference(LorenzReference(10.0, 28.0, 8.0 / 3.0),
                                     {1.0, 1.0, 25.0}, options);
  auto third = IntegrateRk4Reference(LorenzReference(10.0, 28.0, 8.0 / 3.0),
                                     {1.0, 1.0, 21.0}, options);
  ASSERT_TRUE(results[0].ok() && results[2].ok());
  EXPECT_TRUE(SameBits(*results[0], *first));
  EXPECT_TRUE(SameBits(*results[2], *third));

  options.dt = 0.0;
  for (const auto& r : IntegrateRk4Batch(
           systems, {{1.0, 1.0, 25.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
           options)) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Rk4BatchTest, CancellationFailsEveryMember) {
  LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  std::vector<const OdeSystem*> systems(kBatchLanes + 3, &lorenz);
  std::vector<std::vector<double>> initial(systems.size(), {1.0, 1.0, 25.0});
  Rk4Options options;
  options.num_steps = 100;  // past the check at step 64
  robust::CancelSource source;
  robust::CancelScope scope(source.token());
  source.Cancel();
  for (const auto& r : IntegrateRk4Batch(systems, initial, options)) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
}

// ---------------------------------------------------------- ChainPendulum

TEST(ChainPendulumTest, CreateValidation) {
  EXPECT_FALSE(ChainPendulum::Create({}).ok());
  EXPECT_FALSE(ChainPendulum::Create({1.0, -1.0}).ok());
  EXPECT_FALSE(ChainPendulum::Create({1.0}, 9.81, -0.1).ok());
  EXPECT_FALSE(
      ChainPendulum::Create(std::vector<double>(9, 1.0)).ok());
  EXPECT_TRUE(ChainPendulum::Create({1.0, 2.0, 3.0}).ok());
}

TEST(ChainPendulumTest, SinglePendulumSmallAngleFrequency) {
  // Small-angle single pendulum: theta(t) ~= theta0 cos(sqrt(g/L) t).
  auto pendulum = ChainPendulum::Create({1.0}, 9.81);
  ASSERT_TRUE(pendulum.ok());
  const double theta0 = 0.01;
  Rk4Options options;
  options.dt = 0.001;
  options.num_steps = 2000;
  options.record_every = 100;
  auto trajectory =
      IntegrateRk4(*pendulum, pendulum->InitialState({theta0}), options);
  ASSERT_TRUE(trajectory.ok());
  const double omega = std::sqrt(9.81);
  for (std::size_t s = 0; s < trajectory->NumSamples(); ++s) {
    const double t = trajectory->times[s];
    EXPECT_NEAR(trajectory->observables[s][0], theta0 * std::cos(omega * t),
                1e-4 * theta0 + 1e-7)
        << "t=" << t;
  }
}

TEST(ChainPendulumTest, MatchesClosedFormDoublePendulum) {
  auto chain = ChainPendulum::Create({1.3, 0.7});
  ASSERT_TRUE(chain.ok());
  DoublePendulumReference reference(1.3, 0.7);
  Rk4Options options;
  options.dt = 0.002;
  options.num_steps = 1500;
  options.record_every = 100;
  const std::vector<double> initial = chain->InitialState({0.9, -0.4});
  auto t1 = IntegrateRk4(*chain, initial, options);
  auto t2 = IntegrateRk4(reference, initial, options);
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (std::size_t s = 0; s < t1->NumSamples(); ++s) {
    EXPECT_NEAR(t1->observables[s][0], t2->observables[s][0], 1e-6)
        << "sample " << s;
    EXPECT_NEAR(t1->observables[s][1], t2->observables[s][1], 1e-6)
        << "sample " << s;
  }
}

TEST(ChainPendulumTest, EnergyConservedWithoutFriction) {
  auto pendulum = ChainPendulum::Create({1.0, 2.0, 0.5});
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> initial =
      pendulum->InitialState({1.0, 0.5, -0.3});
  const double e0 = PendulumEnergy(*pendulum, initial);

  Rk4Options options;
  options.dt = 0.0005;
  options.num_steps = 4000;
  options.record_every = 4000;
  // Integrate with a wrapper whose observable is the full state, so the
  // recorded samples can be fed back into PendulumEnergy.
  class Reporting : public OdeSystem {
   public:
    explicit Reporting(const ChainPendulum* p) : p_(p) {}
    std::size_t StateSize() const override { return p_->StateSize(); }
    void Derivative(double t, const std::vector<double>& s,
                    std::vector<double>* d) const override {
      p_->Derivative(t, s, d);
    }
   private:
    const ChainPendulum* p_;
  };
  Reporting reporting(&*pendulum);
  auto trajectory = IntegrateRk4(reporting, initial, options);
  ASSERT_TRUE(trajectory.ok());
  const double e1 = PendulumEnergy(*pendulum, trajectory->observables.back());
  EXPECT_NEAR(e1, e0, 1e-6 * std::fabs(e0) + 1e-8);
}

TEST(ChainPendulumTest, FrictionDissipatesEnergy) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0, 1.0}, 9.81, 0.3);
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> initial = pendulum->InitialState({1.2, 0.8, 0.4});
  class Reporting : public OdeSystem {
   public:
    explicit Reporting(const ChainPendulum* p) : p_(p) {}
    std::size_t StateSize() const override { return p_->StateSize(); }
    void Derivative(double t, const std::vector<double>& s,
                    std::vector<double>* d) const override {
      p_->Derivative(t, s, d);
    }
   private:
    const ChainPendulum* p_;
  };
  Reporting reporting(&*pendulum);
  Rk4Options options;
  options.dt = 0.001;
  options.num_steps = 3000;
  options.record_every = 1000;
  auto trajectory = IntegrateRk4(reporting, initial, options);
  ASSERT_TRUE(trajectory.ok());
  double last_energy = PendulumEnergy(*pendulum, trajectory->observables[0]);
  for (std::size_t s = 1; s < trajectory->NumSamples(); ++s) {
    const double energy = PendulumEnergy(*pendulum, trajectory->observables[s]);
    EXPECT_LT(energy, last_energy) << "sample " << s;
    last_energy = energy;
  }
}

TEST(ChainPendulumTest, ObservableIsAnglesOnly) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0});
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> state = {0.1, 0.2, 5.0, 6.0};
  const std::vector<double> obs = pendulum->Observable(state);
  EXPECT_EQ(obs, (std::vector<double>{0.1, 0.2}));
}

TEST(ChainPendulumTest, AtRestStaysAtRest) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0});
  ASSERT_TRUE(pendulum.ok());
  Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 100;
  options.record_every = 10;
  auto trajectory = IntegrateRk4(
      *pendulum, pendulum->InitialState({0.0, 0.0}), options);
  ASSERT_TRUE(trajectory.ok());
  for (const auto& obs : trajectory->observables) {
    EXPECT_NEAR(obs[0], 0.0, 1e-12);
    EXPECT_NEAR(obs[1], 0.0, 1e-12);
  }
}

// ----------------------------------------------------------------- Lorenz

TEST(LorenzTest, FixedPointStaysFixed) {
  // For the classic parameters, C+ = (sqrt(beta(rho-1)), same, rho-1) is an
  // equilibrium.
  const double sigma = 10.0, rho = 14.0, beta = 8.0 / 3.0;
  const double c = std::sqrt(beta * (rho - 1.0));
  LorenzSystem lorenz(sigma, rho, beta);
  std::vector<double> d(3);
  lorenz.Derivative(0.0, {c, c, rho - 1.0}, &d);
  EXPECT_NEAR(d[0], 0.0, 1e-12);
  EXPECT_NEAR(d[1], 0.0, 1e-12);
  EXPECT_NEAR(d[2], 0.0, 1e-12);
}

TEST(LorenzTest, TrajectoryStaysBounded) {
  LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  Rk4Options options;
  options.dt = 0.005;
  options.num_steps = 4000;
  options.record_every = 100;
  auto trajectory = IntegrateRk4(
      lorenz, LorenzSystem::InitialState(1.0, 1.0, 25.0), options);
  ASSERT_TRUE(trajectory.ok());
  for (const auto& obs : trajectory->observables) {
    for (double v : obs) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_LT(std::fabs(v), 100.0);
    }
  }
}

TEST(LorenzTest, SensitiveDependenceOnInitialCondition) {
  // Chaos: nearby starts diverge materially within a few time units.
  LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  Rk4Options options;
  options.dt = 0.005;
  options.num_steps = 3000;
  options.record_every = 3000;
  auto a = IntegrateRk4(lorenz, {1.0, 1.0, 25.0}, options);
  auto b = IntegrateRk4(lorenz, {1.0, 1.0, 25.0 + 1e-4}, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(ObservableDistance(*a, *b, a->NumSamples() - 1), 0.1);
}

TEST(LorenzTest, DerivativeMatchesEquations) {
  LorenzSystem lorenz(2.0, 3.0, 4.0);
  std::vector<double> d(3);
  lorenz.Derivative(0.0, {1.0, 2.0, 3.0}, &d);
  EXPECT_DOUBLE_EQ(d[0], 2.0 * (2.0 - 1.0));
  EXPECT_DOUBLE_EQ(d[1], 1.0 * (3.0 - 3.0) - 2.0);
  EXPECT_DOUBLE_EQ(d[2], 1.0 * 2.0 - 4.0 * 3.0);
}

}  // namespace
}  // namespace m2td::sim
