#include "sim/ode.h"

#include <algorithm>
#include <cmath>
#include <typeinfo>

#include "robust/cancel.h"
#include "util/logging.h"

namespace m2td::sim {

void OdeSystem::Derivative(double t, const std::vector<double>& state,
                           std::vector<double>* derivative) const {
  const std::size_t n = StateSize();
  std::vector<double> lane_state(n * kBatchLanes, 0.0);
  std::vector<double> lane_derivative(n * kBatchLanes, 0.0);
  for (std::size_t i = 0; i < n; ++i) lane_state[i * kBatchLanes] = state[i];
  const OdeSystem* self = this;
  BatchDerivative(t, {&self, 1}, lane_state.data(), lane_derivative.data());
  for (std::size_t i = 0; i < n; ++i) {
    (*derivative)[i] = lane_derivative[i * kBatchLanes];
  }
}

void OdeSystem::BatchDerivative(double t,
                                std::span<const OdeSystem* const> lanes,
                                const double* state,
                                double* derivative) const {
  const std::size_t n = StateSize();
  std::vector<double> x(n), dx(n);
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    for (std::size_t i = 0; i < n; ++i) x[i] = state[i * kBatchLanes + b];
    lanes[b]->Derivative(t, x, &dx);
    for (std::size_t i = 0; i < n; ++i) derivative[i * kBatchLanes + b] = dx[i];
  }
}

double ObservableDistance(const Trajectory& a, const Trajectory& b,
                          std::size_t at) {
  M2TD_CHECK(at < a.NumSamples() && at < b.NumSamples())
      << "sample index out of range";
  const std::vector<double>& oa = a.observables[at];
  const std::vector<double>& ob = b.observables[at];
  M2TD_CHECK(oa.size() == ob.size()) << "observable arity mismatch";
  double sum = 0.0;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    const double d = oa[i] - ob[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

std::vector<Result<Trajectory>> IntegrateRk4Batch(
    std::span<const OdeSystem* const> systems,
    std::vector<std::vector<double>> initial_states,
    const Rk4Options& options) {
  M2TD_CHECK(initial_states.size() == systems.size())
      << "one initial state per member required";
  Status invalid = Status::OK();
  if (options.dt <= 0.0) {
    invalid = Status::InvalidArgument("dt must be positive");
  } else if (options.num_steps <= 0 || options.record_every <= 0) {
    invalid = Status::InvalidArgument("step counts must be positive");
  }
  if (!invalid.ok()) {
    return std::vector<Result<Trajectory>>(systems.size(), invalid);
  }
  // Every entry is overwritten below.
  std::vector<Result<Trajectory>> results(
      systems.size(), Status::Internal("member not integrated"));
  if (systems.empty()) return results;

  const std::size_t n = systems[0]->StateSize();
  std::vector<std::size_t> members;  // the members with a valid start
  for (std::size_t k = 0; k < systems.size(); ++k) {
    M2TD_CHECK(typeid(*systems[k]) == typeid(*systems[0]) &&
               systems[k]->StateSize() == n)
        << "a lockstep batch needs members of one system type";
    if (initial_states[k].size() == n) {
      members.push_back(k);
    } else {
      results[k] = Status::InvalidArgument("initial state has wrong length");
    }
  }

  constexpr std::size_t B = kBatchLanes;
  const std::size_t width = n * B;
  // The state, the four stages and the stage input, [n][B] each, share one
  // allocation. Six separate per-batch temporaries left holes between the
  // cached trajectories that later large requests could not reuse
  // (long_horizon's peak RSS grew by 10%).
  std::vector<double> arrays(6 * width);
  double* state = arrays.data();
  double* k1 = state + width;
  double* k2 = k1 + width;
  double* k3 = k2 + width;
  double* k4 = k3 + width;
  double* scratch = k4 + width;
  std::vector<double> lane_state(n);
  const double dt = options.dt;
  const std::size_t samples = 1 + options.num_steps / options.record_every;

  for (std::size_t first = 0; first < members.size(); first += B) {
    const std::size_t lanes = std::min(B, members.size() - first);
    const OdeSystem* lane_systems[B];
    Trajectory trajectories[B];
    std::fill(state, state + width, 0.0);
    for (std::size_t b = 0; b < lanes; ++b) {
      const std::size_t k = members[first + b];
      lane_systems[b] = systems[k];
      for (std::size_t i = 0; i < n; ++i) {
        state[i * B + b] = initial_states[k][i];
      }
      trajectories[b].times.reserve(samples);
      trajectories[b].observables.reserve(samples);
    }
    const std::span<const OdeSystem* const> batch(lane_systems, lanes);
    const OdeSystem& kind = *lane_systems[0];
    auto record = [&](double t) {
      for (std::size_t b = 0; b < lanes; ++b) {
        for (std::size_t i = 0; i < n; ++i) lane_state[i] = state[i * B + b];
        trajectories[b].times.push_back(t);
        trajectories[b].observables.push_back(
            lane_systems[b]->Observable(lane_state));
      }
    };

    double t = 0.0;
    record(t);
    for (int step = 1; step <= options.num_steps; ++step) {
      // Trajectories run long enough to matter for deadlines; amortize the
      // ambient-token load over a block of steps.
      if ((step & 0x3F) == 0) {
        const Status cancelled = robust::CheckCancelled();
        if (!cancelled.ok()) {
          for (std::size_t m = first; m < members.size(); ++m) {
            results[members[m]] = cancelled;
          }
          return results;
        }
      }
      // Every lane runs the scalar update order, so the stages may sweep
      // all B lanes (idle ones included) as one contiguous array.
      kind.BatchDerivative(t, batch, state, k1);
      for (std::size_t i = 0; i < width; ++i) {
        scratch[i] = state[i] + 0.5 * dt * k1[i];
      }
      kind.BatchDerivative(t + 0.5 * dt, batch, scratch, k2);
      for (std::size_t i = 0; i < width; ++i) {
        scratch[i] = state[i] + 0.5 * dt * k2[i];
      }
      kind.BatchDerivative(t + 0.5 * dt, batch, scratch, k3);
      for (std::size_t i = 0; i < width; ++i) {
        scratch[i] = state[i] + dt * k3[i];
      }
      kind.BatchDerivative(t + dt, batch, scratch, k4);
      for (std::size_t i = 0; i < width; ++i) {
        state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
      }
      t = step * dt;
      if (step % options.record_every == 0) record(t);
    }
    for (std::size_t b = 0; b < lanes; ++b) {
      results[members[first + b]] = std::move(trajectories[b]);
    }
  }
  return results;
}

Result<Trajectory> IntegrateRk4(const OdeSystem& system,
                                std::vector<double> initial_state,
                                const Rk4Options& options) {
  const OdeSystem* one = &system;
  std::vector<std::vector<double>> initial;
  initial.push_back(std::move(initial_state));
  return std::move(IntegrateRk4Batch({&one, 1}, std::move(initial),
                                     options)[0]);
}

}  // namespace m2td::sim
