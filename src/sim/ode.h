#ifndef M2TD_SIM_ODE_H_
#define M2TD_SIM_ODE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/result.h"

namespace m2td::sim {

/// Members one lockstep RK4 batch advances together (see IntegrateRk4Batch).
/// Batched states are structure-of-arrays: component i of lane b lives at
/// `state[i * kBatchLanes + b]`.
inline constexpr std::size_t kBatchLanes = 8;

/// \brief A first-order ODE system dx/dt = f(t, x).
///
/// Implementations are the dynamical processes the paper simulates (chain
/// pendulum, Lorenz). The ensemble layer never touches states directly; it
/// compares *observables* (e.g. pendulum angles) between a simulated and a
/// reference trajectory.
///
/// A system overrides Derivative, BatchDerivative or both: each default is
/// written in terms of the other.
class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// Length of the state vector.
  virtual std::size_t StateSize() const = 0;

  /// Writes f(t, state) into `derivative` (pre-sized to StateSize()). The
  /// default evaluates BatchDerivative on a batch of one.
  virtual void Derivative(double t, const std::vector<double>& state,
                          std::vector<double>* derivative) const;

  /// \brief f(t, ·) for a batch of members in lockstep.
  ///
  /// `state` and `derivative` are [StateSize()][kBatchLanes]
  /// structure-of-arrays; lane b < lanes.size() evaluates with the
  /// parameters of `lanes[b]`, and the lanes past lanes.size() are left
  /// alone. Every lane has this system's dynamic type and state size (the
  /// integrator calls it on lanes[0]). Each lane's result is bit-identical
  /// to Derivative on that member alone. The default gathers each lane and
  /// calls its Derivative.
  virtual void BatchDerivative(double t,
                               std::span<const OdeSystem* const> lanes,
                               const double* state, double* derivative) const;

  /// Projects a state onto the observable quantities used for ensemble
  /// cell values (default: the full state).
  virtual std::vector<double> Observable(
      const std::vector<double>& state) const {
    return state;
  }
};

/// A simulated trajectory: recorded times and the observable vector at each.
struct Trajectory {
  std::vector<double> times;
  std::vector<std::vector<double>> observables;

  std::size_t NumSamples() const { return times.size(); }
};

/// Euclidean distance between the observables of two trajectories at sample
/// index `at`. Aborts when shapes disagree.
double ObservableDistance(const Trajectory& a, const Trajectory& b,
                          std::size_t at);

/// Fixed-step integration options.
struct Rk4Options {
  /// Integration step.
  double dt = 0.01;
  /// Total number of RK4 steps.
  int num_steps = 200;
  /// A sample (time + observable) is recorded every `record_every` steps;
  /// the initial state is always recorded, giving
  /// 1 + num_steps / record_every samples.
  int record_every = 20;
};

/// \brief Classic fixed-step fourth-order Runge–Kutta integration of a
/// batch of independent members, kBatchLanes at a time in lockstep.
///
/// Member k integrates `*systems[k]` from `initial_states[k]`; all members
/// share one dynamic type and state size. Returns one result per member, in
/// order, each bit-identical to integrating that member alone. Fixed-step
/// RK4 (rather than adaptive) keeps trajectories bitwise deterministic
/// across runs and parameter sweeps, which the ensemble tensors rely on.
/// Every member gets InvalidArgument for non-positive dt/steps, a member
/// with a wrong-length initial state gets it alone, and cancellation fails
/// the batch in flight and every later one.
std::vector<Result<Trajectory>> IntegrateRk4Batch(
    std::span<const OdeSystem* const> systems,
    std::vector<std::vector<double>> initial_states,
    const Rk4Options& options);

/// IntegrateRk4Batch on a batch of one.
Result<Trajectory> IntegrateRk4(const OdeSystem& system,
                                std::vector<double> initial_state,
                                const Rk4Options& options);

}  // namespace m2td::sim

#endif  // M2TD_SIM_ODE_H_
