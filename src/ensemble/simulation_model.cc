#include "ensemble/simulation_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "sim/lorenz.h"
#include "sim/pendulum.h"
#include "sim/seir.h"
#include "util/logging.h"

namespace m2td::ensemble {

Result<std::unique_ptr<DynamicalSystemModel>> DynamicalSystemModel::Create(
    std::string name, ParameterSpace space, TrajectoryFactory factory,
    std::vector<double> reference_params) {
  if (space.num_modes() < 2) {
    return Status::InvalidArgument(
        "model space needs a time mode plus at least one parameter");
  }
  if (reference_params.size() != space.num_modes() - 1) {
    return Status::InvalidArgument(
        "reference parameter count must match the non-time modes");
  }
  std::vector<Result<sim::Trajectory>> simulated = factory({reference_params});
  if (simulated.size() != 1) {
    return Status::InvalidArgument(
        "trajectory factory must return one result per configuration");
  }
  M2TD_ASSIGN_OR_RETURN(sim::Trajectory reference, std::move(simulated[0]));
  if (reference.NumSamples() != space.Resolution(0)) {
    return Status::InvalidArgument(
        "trajectory sample count does not match the time mode resolution");
  }
  return std::unique_ptr<DynamicalSystemModel>(
      new DynamicalSystemModel(std::move(name), std::move(space),
                               std::move(factory), std::move(reference)));
}

std::uint64_t DynamicalSystemModel::ParamLinearIndex(
    const std::vector<std::uint32_t>& indices) const {
  std::uint64_t linear = 0;
  for (std::size_t m = 1; m < space_.num_modes(); ++m) {
    linear = linear * space_.Resolution(m) + indices[m];
  }
  return linear;
}

std::vector<double> DynamicalSystemModel::ParamValues(
    const std::vector<std::uint32_t>& indices) const {
  std::vector<double> params(space_.num_modes() - 1);
  for (std::size_t m = 1; m < space_.num_modes(); ++m) {
    params[m - 1] = space_.Value(m, indices[m]);
  }
  return params;
}

const sim::Trajectory* DynamicalSystemModel::GetTrajectory(
    const std::vector<std::uint32_t>& indices) {
  const std::uint64_t key = ParamLinearIndex(indices);
  auto it = cache_.find(key);
  if (it != cache_.end()) return &it->second;
  std::vector<Result<sim::Trajectory>> simulated =
      factory_({ParamValues(indices)});
  M2TD_CHECK(simulated.size() == 1)
      << "trajectory factory must return one result per configuration";
  return Record(key, std::move(simulated[0]));
}

void DynamicalSystemModel::SimulateCells(
    const std::vector<std::vector<std::uint32_t>>& cells) {
  std::vector<std::uint64_t> keys;
  std::vector<std::vector<double>> configs;
  // Simulates the pending batch; false when it was cancelled.
  auto run_batch = [&]() {
    std::vector<Result<sim::Trajectory>> simulated = factory_(configs);
    M2TD_CHECK(simulated.size() == configs.size())
        << "trajectory factory must return one result per configuration";
    bool cancelled = false;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      cancelled |= Record(keys[k], std::move(simulated[k])) == nullptr;
    }
    keys.clear();
    configs.clear();
    return !cancelled;
  };
  for (const std::vector<std::uint32_t>& cell : cells) {
    M2TD_CHECK(cell.size() == space_.num_modes());
    const std::uint64_t key = ParamLinearIndex(cell);
    if (cache_.count(key) != 0 ||
        std::find(keys.begin(), keys.end(), key) != keys.end()) {
      continue;
    }
    keys.push_back(key);
    configs.push_back(ParamValues(cell));
    if (keys.size() == sim::kBatchLanes && !run_batch()) return;
  }
  if (!keys.empty()) run_batch();
}

const sim::Trajectory* DynamicalSystemModel::Record(
    std::uint64_t key, Result<sim::Trajectory> trajectory) {
  if (!trajectory.ok() && robust::IsCancellation(trajectory.status())) {
    // Cancelled, not failed: nothing is cached or counted, so a later run
    // simulates these parameters again. This call's fiber still reads NaN.
    return nullptr;
  }
  ++simulations_run_;
  const Status injected = robust::CheckFailpoint("sim.trajectory");
  if (!trajectory.ok() || !injected.ok()) {
    // A failed simulation poisons its whole time fiber with NaN instead of
    // aborting the run: every Cell() along the fiber goes NaN, which the
    // robust ensemble builder detects, counts as a failed simulation, and
    // replaces with a fresh draw.
    if (!trajectory.ok()) {
      M2TD_LOG_WARNING() << "trajectory factory failed (fiber poisoned): "
                         << trajectory.status();
    }
    obs::GetCounter("ensemble.failed_simulations").Add(1);
    sim::Trajectory poisoned;
    poisoned.times = reference_.times;
    poisoned.observables.assign(
        reference_.observables.size(),
        std::vector<double>(
            reference_.observables.empty()
                ? 0
                : reference_.observables.front().size(),
            std::numeric_limits<double>::quiet_NaN()));
    return &cache_.emplace(key, std::move(poisoned)).first->second;
  }
  return &cache_.emplace(key, std::move(trajectory).ValueOrDie())
      .first->second;
}

double DynamicalSystemModel::Cell(const std::vector<std::uint32_t>& indices) {
  M2TD_CHECK(indices.size() == space_.num_modes());
  const sim::Trajectory* trajectory = GetTrajectory(indices);
  if (trajectory == nullptr) return std::numeric_limits<double>::quiet_NaN();
  return sim::ObservableDistance(*trajectory, reference_, indices[0]);
}

namespace {

ParameterDef TimeAxis(const ModelOptions& options) {
  const double horizon =
      options.dt * options.record_every * (options.time_resolution - 1);
  return ParameterDef{"t", 0.0, horizon, options.time_resolution};
}

sim::Rk4Options IntegratorOptions(const ModelOptions& options) {
  sim::Rk4Options rk4;
  rk4.dt = options.dt;
  rk4.record_every = options.record_every;
  rk4.num_steps =
      options.record_every * static_cast<int>(options.time_resolution - 1);
  if (rk4.num_steps <= 0) rk4.num_steps = options.record_every;
  return rk4;
}

/// One member of a lockstep batch: its system and initial state.
template <typename System>
struct Member {
  System system;
  std::vector<double> initial_state;
};

/// Integrates the members `make` builds from `configs` as one lockstep
/// batch; a configuration whose member cannot be built gets that error.
template <typename System, typename MakeMember>
std::vector<Result<sim::Trajectory>> IntegrateConfigs(
    const std::vector<std::vector<double>>& configs,
    const sim::Rk4Options& rk4, MakeMember make) {
  std::vector<Result<sim::Trajectory>> results(
      configs.size(), Status::Internal("member not integrated"));
  std::vector<System> systems;
  std::vector<std::vector<double>> initial_states;
  std::vector<std::size_t> built;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    Result<Member<System>> member = make(configs[k]);
    if (!member.ok()) {
      results[k] = member.status();
      continue;
    }
    systems.push_back(std::move(member->system));
    initial_states.push_back(std::move(member->initial_state));
    built.push_back(k);
  }
  std::vector<const sim::OdeSystem*> lanes;
  for (const System& system : systems) lanes.push_back(&system);
  std::vector<Result<sim::Trajectory>> integrated =
      sim::IntegrateRk4Batch(lanes, std::move(initial_states), rk4);
  for (std::size_t i = 0; i < built.size(); ++i) {
    results[built[i]] = std::move(integrated[i]);
  }
  return results;
}

std::vector<double> MidpointReference(const ParameterSpace& space) {
  std::vector<double> reference(space.num_modes() - 1);
  for (std::size_t m = 1; m < space.num_modes(); ++m) {
    reference[m - 1] = space.Value(m, space.DefaultIndex(m));
  }
  return reference;
}

}  // namespace

Result<std::unique_ptr<DynamicalSystemModel>> MakeDoublePendulumModel(
    const ModelOptions& options) {
  const std::uint32_t res = options.parameter_resolution;
  std::vector<ParameterDef> defs = {
      TimeAxis(options),
      ParameterDef{"phi1", 0.3, 1.8, res},
      ParameterDef{"phi2", 0.3, 1.8, res},
      ParameterDef{"m1", 0.5, 2.5, res},
      ParameterDef{"m2", 0.5, 2.5, res},
  };
  M2TD_ASSIGN_OR_RETURN(ParameterSpace space,
                        ParameterSpace::Create(std::move(defs)));
  const sim::Rk4Options rk4 = IntegratorOptions(options);
  auto factory = [rk4](const std::vector<std::vector<double>>& configs) {
    return IntegrateConfigs<sim::ChainPendulum>(
        configs, rk4,
        [](const std::vector<double>& p)
            -> Result<Member<sim::ChainPendulum>> {
          // p = (phi1, phi2, m1, m2).
          M2TD_ASSIGN_OR_RETURN(sim::ChainPendulum pendulum,
                                sim::ChainPendulum::Create({p[2], p[3]}));
          std::vector<double> initial = pendulum.InitialState({p[0], p[1]});
          return Member<sim::ChainPendulum>{std::move(pendulum),
                                            std::move(initial)};
        });
  };
  std::vector<double> reference = MidpointReference(space);
  return DynamicalSystemModel::Create("double pendulum", std::move(space),
                                      std::move(factory),
                                      std::move(reference));
}

Result<std::unique_ptr<DynamicalSystemModel>> MakeTriplePendulumModel(
    const ModelOptions& options) {
  const std::uint32_t res = options.parameter_resolution;
  std::vector<ParameterDef> defs = {
      TimeAxis(options),
      ParameterDef{"phi1", 0.3, 1.8, res},
      ParameterDef{"phi2", 0.3, 1.8, res},
      ParameterDef{"phi3", 0.3, 1.8, res},
      ParameterDef{"f", 0.0, 0.5, res},
  };
  M2TD_ASSIGN_OR_RETURN(ParameterSpace space,
                        ParameterSpace::Create(std::move(defs)));
  const sim::Rk4Options rk4 = IntegratorOptions(options);
  auto factory = [rk4](const std::vector<std::vector<double>>& configs) {
    return IntegrateConfigs<sim::ChainPendulum>(
        configs, rk4,
        [](const std::vector<double>& p)
            -> Result<Member<sim::ChainPendulum>> {
          // p = (phi1, phi2, phi3, f); unit masses, friction f.
          M2TD_ASSIGN_OR_RETURN(
              sim::ChainPendulum pendulum,
              sim::ChainPendulum::Create({1.0, 1.0, 1.0}, 9.81, p[3]));
          std::vector<double> initial =
              pendulum.InitialState({p[0], p[1], p[2]});
          return Member<sim::ChainPendulum>{std::move(pendulum),
                                            std::move(initial)};
        });
  };
  std::vector<double> reference = MidpointReference(space);
  return DynamicalSystemModel::Create("triple pendulum", std::move(space),
                                      std::move(factory),
                                      std::move(reference));
}

Result<std::unique_ptr<DynamicalSystemModel>> MakeLorenzModel(
    const ModelOptions& options) {
  const std::uint32_t res = options.parameter_resolution;
  std::vector<ParameterDef> defs = {
      TimeAxis(options),
      ParameterDef{"z", 20.0, 30.0, res},
      ParameterDef{"sigma", 8.0, 12.0, res},
      ParameterDef{"beta", 2.0, 3.3, res},
      ParameterDef{"rho", 24.0, 32.0, res},
  };
  M2TD_ASSIGN_OR_RETURN(ParameterSpace space,
                        ParameterSpace::Create(std::move(defs)));
  const sim::Rk4Options rk4 = IntegratorOptions(options);
  auto factory = [rk4](const std::vector<std::vector<double>>& configs) {
    return IntegrateConfigs<sim::LorenzSystem>(
        configs, rk4,
        [](const std::vector<double>& p)
            -> Result<Member<sim::LorenzSystem>> {
          // p = (z0, sigma, beta, rho); fixed x0 = y0 = 1.
          return Member<sim::LorenzSystem>{
              sim::LorenzSystem(p[1], p[3], p[2]),
              sim::LorenzSystem::InitialState(1.0, 1.0, p[0])};
        });
  };
  std::vector<double> reference = MidpointReference(space);
  return DynamicalSystemModel::Create("lorenz", std::move(space),
                                      std::move(factory),
                                      std::move(reference));
}

Result<std::unique_ptr<DynamicalSystemModel>> MakeSeirModel(
    const ModelOptions& options) {
  const std::uint32_t res = options.parameter_resolution;
  ModelOptions epidemic = options;
  epidemic.dt = 0.5;  // days; epidemic dynamics live on slow time scales
  std::vector<ParameterDef> defs = {
      TimeAxis(epidemic),
      ParameterDef{"beta", 0.15, 0.6, res},
      ParameterDef{"sigma", 0.1, 0.5, res},
      ParameterDef{"gamma", 0.05, 0.3, res},
      ParameterDef{"i0", 0.001, 0.05, res},
  };
  M2TD_ASSIGN_OR_RETURN(ParameterSpace space,
                        ParameterSpace::Create(std::move(defs)));
  const sim::Rk4Options rk4 = IntegratorOptions(epidemic);
  auto factory = [rk4](const std::vector<std::vector<double>>& configs) {
    return IntegrateConfigs<sim::SeirSystem>(
        configs, rk4,
        [](const std::vector<double>& p) -> Result<Member<sim::SeirSystem>> {
          // p = (beta, sigma, gamma, i0).
          M2TD_ASSIGN_OR_RETURN(sim::SeirSystem seir,
                                sim::SeirSystem::Create(p[0], p[1], p[2]));
          M2TD_ASSIGN_OR_RETURN(std::vector<double> initial,
                                sim::SeirSystem::InitialState(p[3]));
          return Member<sim::SeirSystem>{std::move(seir), std::move(initial)};
        });
  };
  std::vector<double> reference = MidpointReference(space);
  return DynamicalSystemModel::Create("seir epidemic", std::move(space),
                                      std::move(factory),
                                      std::move(reference));
}

Result<tensor::DenseTensor> BuildFullTensor(SimulationModel* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  const ParameterSpace& space = model->space();
  tensor::DenseTensor full(space.Shape());
  const std::size_t modes = space.num_modes();
  const std::size_t time = model->time_mode();
  // Cells go to the model a block at a time, so it can simulate each
  // block's new configurations in lockstep before they are read. Only the
  // time-index-0 cells are offered: every configuration has one, it comes
  // first in linear order, and the later time slices are cached by then.
  constexpr std::uint64_t kBlock = 256;
  std::vector<std::vector<std::uint32_t>> block, first_slice;
  for (std::uint64_t first = 0; first < full.NumElements(); first += kBlock) {
    const std::uint64_t count = std::min(kBlock, full.NumElements() - first);
    block.resize(count, std::vector<std::uint32_t>(modes));
    first_slice.clear();
    for (std::uint64_t c = 0; c < count; ++c) {
      std::uint64_t rest = first + c;
      for (std::size_t m = 0; m < modes; ++m) {
        block[c][m] = static_cast<std::uint32_t>(rest / full.Stride(m));
        rest %= full.Stride(m);
      }
      if (block[c][time] == 0) first_slice.push_back(block[c]);
    }
    if (!first_slice.empty()) model->SimulateCells(first_slice);
    for (std::uint64_t c = 0; c < count; ++c) {
      full.flat(first + c) = model->Cell(block[c]);
    }
  }
  return full;
}

}  // namespace m2td::ensemble
