#ifndef M2TD_SIM_LORENZ_H_
#define M2TD_SIM_LORENZ_H_

#include <vector>

#include "sim/ode.h"

namespace m2td::sim {

/// \brief The Lorenz system, chaotic for the classic parameter regime:
///   dx/dt = sigma (y - x)
///   dy/dt = x (rho - z) - y
///   dz/dt = x y - beta z.
///
/// The paper's four variable parameters are the initial z coordinate plus
/// (sigma, beta, rho); x0 and y0 are fixed constants of the ensemble.
class LorenzSystem : public OdeSystem {
 public:
  LorenzSystem(double sigma, double rho, double beta)
      : sigma_(sigma), rho_(rho), beta_(beta) {}

  double sigma() const { return sigma_; }
  double rho() const { return rho_; }
  double beta() const { return beta_; }

  std::size_t StateSize() const override { return 3; }
  /// Lanes may differ in sigma, rho and beta.
  void BatchDerivative(double t, std::span<const OdeSystem* const> lanes,
                       const double* state,
                       double* derivative) const override;

  /// State from the paper's parameterization: fixed (x0, y0), variable z0.
  static std::vector<double> InitialState(double x0, double y0, double z0) {
    return {x0, y0, z0};
  }

 private:
  double sigma_;
  double rho_;
  double beta_;
};

}  // namespace m2td::sim

#endif  // M2TD_SIM_LORENZ_H_
