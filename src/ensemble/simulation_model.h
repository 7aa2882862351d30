#ifndef M2TD_ENSEMBLE_SIMULATION_MODEL_H_
#define M2TD_ENSEMBLE_SIMULATION_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ensemble/parameter_space.h"
#include "sim/ode.h"
#include "tensor/dense_tensor.h"
#include "util/result.h"

namespace m2td::ensemble {

/// \brief Maps tensor cells to simulation outcomes.
///
/// A model owns the full parameter space (mode 0 is, by convention of this
/// library, the time axis) and can evaluate any cell: the value is the
/// Euclidean distance between the observable of the simulation with the
/// cell's parameter values and a fixed *reference* ("observed") trajectory
/// at the cell's timestamp — exactly the cell semantics of Section VII-B.
class SimulationModel {
 public:
  virtual ~SimulationModel() = default;

  virtual const ParameterSpace& space() const = 0;

  /// Which mode is the time axis.
  virtual std::size_t time_mode() const { return 0; }

  /// Cell value for a full multi-index over space().
  virtual double Cell(const std::vector<std::uint32_t>& indices) = 0;

  /// Runs ahead of time the simulations that Cell() on each of `cells`
  /// would need, so a model can advance them in lockstep batches. A hint:
  /// the values Cell() returns afterwards do not depend on it, and the
  /// default does nothing (Cell() then simulates on demand).
  virtual void SimulateCells(
      const std::vector<std::vector<std::uint32_t>>& /*cells*/) {}

  /// Number of simulations (trajectories) actually executed so far; the
  /// experiment harness uses this to account for simulation budgets.
  virtual std::uint64_t SimulationsRun() const = 0;

  /// Human-readable name for reports ("double pendulum", ...).
  virtual const std::string& name() const = 0;
};

/// \brief SimulationModel over an ODE trajectory factory with caching.
///
/// The factory receives parameter configurations — each the values of the
/// *parameter* modes (all modes except time, in mode order) — and returns
/// one trajectory per configuration, in order, whose recorded sample count
/// must equal the time mode's resolution. The model passes it at most
/// sim::kBatchLanes configurations at a time, so the built-in factories
/// integrate them as one lockstep batch. Trajectories are memoized per
/// parameter multi-index, so evaluating a whole time fiber costs one
/// simulation — mirroring the fact that one simulation run yields all
/// timestamps.
class DynamicalSystemModel : public SimulationModel {
 public:
  using TrajectoryFactory = std::function<std::vector<Result<sim::Trajectory>>(
      const std::vector<std::vector<double>>&)>;

  /// `space` must have the time axis at mode 0; `reference_params` are the
  /// parameter values of the observed system the ensemble compares against.
  /// Runs the reference simulation eagerly to validate the configuration.
  static Result<std::unique_ptr<DynamicalSystemModel>> Create(
      std::string name, ParameterSpace space, TrajectoryFactory factory,
      std::vector<double> reference_params);

  const ParameterSpace& space() const override { return space_; }
  double Cell(const std::vector<std::uint32_t>& indices) override;
  /// Simulates the cells' parameter configurations that are not cached
  /// yet, in first-appearance order and in batches of sim::kBatchLanes.
  /// Counting, the `sim.trajectory` failpoint and NaN poisoning apply per
  /// configuration in that order, as if Cell() had met them one by one. A
  /// cancelled batch caches nothing and ends the call.
  void SimulateCells(
      const std::vector<std::vector<std::uint32_t>>& cells) override;
  std::uint64_t SimulationsRun() const override { return simulations_run_; }
  const std::string& name() const override { return name_; }

  const sim::Trajectory& reference_trajectory() const { return reference_; }

  /// Drops all memoized trajectories (budget accounting in experiments that
  /// reuse one model across schemes).
  void ClearCache() {
    cache_.clear();
    simulations_run_ = 0;
  }

 private:
  DynamicalSystemModel(std::string name, ParameterSpace space,
                       TrajectoryFactory factory, sim::Trajectory reference)
      : name_(std::move(name)),
        space_(std::move(space)),
        factory_(std::move(factory)),
        reference_(std::move(reference)) {}

  /// Linear index over the parameter modes (modes 1..N-1).
  std::uint64_t ParamLinearIndex(
      const std::vector<std::uint32_t>& indices) const;

  /// Parameter values of `indices` (modes 1..N-1).
  std::vector<double> ParamValues(
      const std::vector<std::uint32_t>& indices) const;

  /// The memoized trajectory for `indices`' parameters; null when its
  /// simulation was cancelled (not cached, so a later call simulates again).
  const sim::Trajectory* GetTrajectory(
      const std::vector<std::uint32_t>& indices);

  /// Caches the outcome of simulating configuration `key` and returns the
  /// cached trajectory; null (nothing cached or counted) when cancelled.
  const sim::Trajectory* Record(std::uint64_t key,
                                Result<sim::Trajectory> trajectory);

  std::string name_;
  ParameterSpace space_;
  TrajectoryFactory factory_;
  sim::Trajectory reference_;
  std::unordered_map<std::uint64_t, sim::Trajectory> cache_;
  std::uint64_t simulations_run_ = 0;
};

/// Configuration shared by the built-in models.
struct ModelOptions {
  /// Resolution of every parameter mode (the paper's "Res." column).
  std::uint32_t parameter_resolution = 10;
  /// Resolution of the time mode (number of recorded samples).
  std::uint32_t time_resolution = 10;
  /// RK4 step size.
  double dt = 0.01;
  /// RK4 steps between recorded samples.
  int record_every = 10;
};

/// Double pendulum model: modes (t, phi1, phi2, m1, m2), friction 0.
Result<std::unique_ptr<DynamicalSystemModel>> MakeDoublePendulumModel(
    const ModelOptions& options);

/// Triple pendulum with variable friction: modes (t, phi1, phi2, phi3, f),
/// unit masses.
Result<std::unique_ptr<DynamicalSystemModel>> MakeTriplePendulumModel(
    const ModelOptions& options);

/// Lorenz system: modes (t, z0, sigma, beta, rho), fixed x0 = y0 = 1.
Result<std::unique_ptr<DynamicalSystemModel>> MakeLorenzModel(
    const ModelOptions& options);

/// SEIR epidemic model (the paper's introductory motivation): modes
/// (t, beta, sigma, gamma, i0) over epidemiologically plausible ranges.
/// Note: the default ModelOptions time step is far too fine for epidemic
/// time scales; this factory uses dt = 0.5 (days) internally while
/// honoring the requested resolutions.
Result<std::unique_ptr<DynamicalSystemModel>> MakeSeirModel(
    const ModelOptions& options);

/// \brief Materializes the full simulation-space tensor Y (every cell) —
/// the ground truth of the paper's accuracy metric. Feasible only at the
/// scaled-down resolutions this repo uses (see DESIGN.md).
Result<tensor::DenseTensor> BuildFullTensor(SimulationModel* model);

}  // namespace m2td::ensemble

#endif  // M2TD_ENSEMBLE_SIMULATION_MODEL_H_
