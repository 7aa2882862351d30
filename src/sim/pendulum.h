#ifndef M2TD_SIM_PENDULUM_H_
#define M2TD_SIM_PENDULUM_H_

#include <vector>

#include "sim/ode.h"
#include "util/result.h"

namespace m2td::sim {

/// \brief Planar chain pendulum with `n` point masses on massless
/// unit-length rods, uniform gravity, and optional viscous joint friction.
///
/// This one model yields both evaluation systems of the paper: n=2 is the
/// double pendulum (friction 0) and n=3 the triple pendulum with variable
/// friction. The state vector is (theta_1..theta_n, omega_1..omega_n);
/// the observable is the angle vector (the paper treats the pendulum as a
/// multi-variate angle time series).
///
/// Dynamics: with A_ij = sum of the masses at or below link max(i, j),
///   sum_j A_ij cos(th_i - th_j) alpha_j =
///       - sum_j A_ij sin(th_i - th_j) omega_j^2
///       - g A_ii sin th_i - c omega_i,
/// solved for the angular accelerations alpha by an in-place small-system
/// Gaussian elimination at every derivative evaluation.
class ChainPendulum : public OdeSystem {
 public:
  /// Creates an n-link pendulum. `masses` must be non-empty, all positive;
  /// friction must be non-negative; gravity is the usual downward constant.
  static Result<ChainPendulum> Create(std::vector<double> masses,
                                      double gravity = 9.81,
                                      double friction = 0.0);

  std::size_t NumLinks() const { return masses_.size(); }
  double gravity() const { return gravity_; }
  double friction() const { return friction_; }
  const std::vector<double>& masses() const { return masses_; }

  std::size_t StateSize() const override { return 2 * masses_.size(); }
  /// Every lane is a ChainPendulum with this one's link count; lanes may
  /// differ in masses, gravity and friction.
  void BatchDerivative(double t, std::span<const OdeSystem* const> lanes,
                       const double* state,
                       double* derivative) const override;
  /// Angles only.
  std::vector<double> Observable(
      const std::vector<double>& state) const override;

  /// Convenience: state from initial angles (angular velocities zero).
  std::vector<double> InitialState(
      const std::vector<double>& initial_angles) const;

 private:
  ChainPendulum(std::vector<double> masses, double gravity, double friction);

  /// BatchDerivative for n links.
  template <std::size_t n>
  static void BatchKernel(std::span<const OdeSystem* const> lanes,
                          const double* state, double* derivative);
  /// BatchDerivative for n links and `count` lanes.
  template <std::size_t n, std::size_t count>
  static void BatchKernel(const OdeSystem* const* lanes, const double* state,
                          double* derivative);

  std::vector<double> masses_;
  /// a_matrix_[i][j] = sum_{k >= max(i,j)} masses_[k].
  std::vector<std::vector<double>> a_matrix_;
  double gravity_;
  double friction_;
};

}  // namespace m2td::sim

#endif  // M2TD_SIM_PENDULUM_H_
