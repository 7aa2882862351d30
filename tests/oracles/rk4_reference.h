#ifndef M2TD_TESTS_ORACLES_RK4_REFERENCE_H_
#define M2TD_TESTS_ORACLES_RK4_REFERENCE_H_

#include <vector>

#include "sim/ode.h"
#include "sim/pendulum.h"
#include "util/result.h"

namespace m2td::sim {

/// \brief The scalar fixed-step RK4 loop IntegrateRk4 ran before members
/// advanced in lockstep batches: one state vector, four stage vectors,
/// `system.Derivative` once per stage.
///
/// Test oracle only (no production caller). Same validation and
/// cancellation checks as IntegrateRk4Batch. Like the systems below, this
/// file is compiled with -ffp-contract=off, as src/sim is. Every member of
/// IntegrateRk4Batch must be bit-identical to it on the scalar systems
/// below.
Result<Trajectory> IntegrateRk4Reference(const OdeSystem& system,
                                         std::vector<double> initial_state,
                                         const Rk4Options& options);

/// \brief The scalar ChainPendulum derivative: a sin and a cos for every
/// ordered link pair (the diagonal included), then partial-pivot Gaussian
/// elimination. Observable: the angles.
class ChainPendulumReference : public OdeSystem {
 public:
  explicit ChainPendulumReference(const ChainPendulum& pendulum);

  std::size_t StateSize() const override { return 2 * masses_.size(); }
  void Derivative(double t, const std::vector<double>& state,
                  std::vector<double>* derivative) const override;
  std::vector<double> Observable(
      const std::vector<double>& state) const override;

 private:
  std::vector<double> masses_;
  std::vector<std::vector<double>> a_matrix_;
  double gravity_;
  double friction_;
};

/// The scalar Lorenz derivative; full-state observable.
class LorenzReference : public OdeSystem {
 public:
  LorenzReference(double sigma, double rho, double beta)
      : sigma_(sigma), rho_(rho), beta_(beta) {}

  std::size_t StateSize() const override { return 3; }
  void Derivative(double t, const std::vector<double>& state,
                  std::vector<double>* derivative) const override;

 private:
  double sigma_;
  double rho_;
  double beta_;
};

/// The scalar SEIR derivative; observable (E, I).
class SeirReference : public OdeSystem {
 public:
  SeirReference(double beta, double sigma, double gamma)
      : beta_(beta), sigma_(sigma), gamma_(gamma) {}

  std::size_t StateSize() const override { return 4; }
  void Derivative(double t, const std::vector<double>& state,
                  std::vector<double>* derivative) const override;
  std::vector<double> Observable(
      const std::vector<double>& state) const override {
    return {state[1], state[2]};
  }

 private:
  double beta_;
  double sigma_;
  double gamma_;
};

/// \brief Closed-form double pendulum accelerations (the textbook
/// formulas), an independent physics oracle for ChainPendulum.
///
/// Unit rod lengths. State layout matches ChainPendulum with n=2.
class DoublePendulumReference : public OdeSystem {
 public:
  DoublePendulumReference(double m1, double m2, double gravity = 9.81)
      : m1_(m1), m2_(m2), gravity_(gravity) {}

  std::size_t StateSize() const override { return 4; }
  void Derivative(double t, const std::vector<double>& state,
                  std::vector<double>* derivative) const override;
  std::vector<double> Observable(
      const std::vector<double>& state) const override {
    return {state[0], state[1]};
  }

 private:
  double m1_;
  double m2_;
  double gravity_;
};

/// Total mechanical energy of `pendulum` in `state` (for conservation
/// tests, friction = 0): kinetic + potential of the point masses,
/// potential zero at the pivot.
double PendulumEnergy(const ChainPendulum& pendulum,
                      const std::vector<double>& state);

}  // namespace m2td::sim

#endif  // M2TD_TESTS_ORACLES_RK4_REFERENCE_H_
