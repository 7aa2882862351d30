#ifndef M2TD_SIM_SEIR_H_
#define M2TD_SIM_SEIR_H_

#include <vector>

#include "sim/ode.h"
#include "util/result.h"

namespace m2td::sim {

/// \brief SEIR compartmental epidemic model (normalized population):
///   dS/dt = -beta S I
///   dE/dt =  beta S I - sigma E
///   dI/dt =  sigma E  - gamma I
///   dR/dt =  gamma I.
///
/// The paper's introduction motivates simulation ensembles with epidemic
/// spread tools (STEM); this model provides that domain as a fourth
/// built-in system. State (S, E, I, R) sums to 1; the observable is the
/// (E, I) pair — the quantities a decision maker tracks.
class SeirSystem : public OdeSystem {
 public:
  /// beta: transmission rate, sigma: 1/incubation period, gamma: recovery
  /// rate. All must be positive.
  static Result<SeirSystem> Create(double beta, double sigma, double gamma);

  double beta() const { return beta_; }
  double sigma() const { return sigma_; }
  double gamma() const { return gamma_; }

  /// Basic reproduction number R0 = beta / gamma.
  double R0() const { return beta_ / gamma_; }

  std::size_t StateSize() const override { return 4; }
  /// Lanes may differ in every rate.
  void BatchDerivative(double t, std::span<const OdeSystem* const> lanes,
                       const double* state,
                       double* derivative) const override;
  std::vector<double> Observable(
      const std::vector<double>& state) const override {
    return {state[1], state[2]};
  }

  /// State with an initial infected fraction i0 (rest susceptible).
  /// i0 must be in (0, 1).
  static Result<std::vector<double>> InitialState(double i0);

 private:
  SeirSystem(double beta, double sigma, double gamma)
      : beta_(beta), sigma_(sigma), gamma_(gamma) {}

  double beta_;
  double sigma_;
  double gamma_;
};

}  // namespace m2td::sim

#endif  // M2TD_SIM_SEIR_H_
