#include "oracles/rk4_reference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "robust/cancel.h"
#include "util/logging.h"

namespace m2td::sim {

namespace {

constexpr std::size_t kMaxLinks = 8;

void SolveSmallSystem(std::size_t n, double m[kMaxLinks][kMaxLinks],
                      double rhs[kMaxLinks], double out[kMaxLinks]) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(m[col][col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(m[r][col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    M2TD_CHECK(best > 1e-300) << "singular pendulum mass matrix";
    if (pivot != col) {
      for (std::size_t j = col; j < n; ++j) std::swap(m[col][j], m[pivot][j]);
      std::swap(rhs[col], rhs[pivot]);
    }
    const double inv = 1.0 / m[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[r][col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) m[r][j] -= factor * m[col][j];
      rhs[r] -= factor * rhs[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = rhs[ri];
    for (std::size_t j = ri + 1; j < n; ++j) sum -= m[ri][j] * out[j];
    out[ri] = sum / m[ri][ri];
  }
}

}  // namespace

Result<Trajectory> IntegrateRk4Reference(const OdeSystem& system,
                                         std::vector<double> initial_state,
                                         const Rk4Options& options) {
  if (options.dt <= 0.0) {
    return Status::InvalidArgument("dt must be positive");
  }
  if (options.num_steps <= 0 || options.record_every <= 0) {
    return Status::InvalidArgument("step counts must be positive");
  }
  const std::size_t n = system.StateSize();
  if (initial_state.size() != n) {
    return Status::InvalidArgument("initial state has wrong length");
  }

  Trajectory trajectory;
  trajectory.times.reserve(1 + options.num_steps / options.record_every);
  trajectory.observables.reserve(trajectory.times.capacity());

  std::vector<double> state = std::move(initial_state);
  std::vector<double> k1(n), k2(n), k3(n), k4(n), scratch(n);

  double t = 0.0;
  trajectory.times.push_back(t);
  trajectory.observables.push_back(system.Observable(state));

  const double dt = options.dt;
  for (int step = 1; step <= options.num_steps; ++step) {
    if ((step & 0x3F) == 0) {
      M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    }
    system.Derivative(t, state, &k1);
    for (std::size_t i = 0; i < n; ++i) {
      scratch[i] = state[i] + 0.5 * dt * k1[i];
    }
    system.Derivative(t + 0.5 * dt, scratch, &k2);
    for (std::size_t i = 0; i < n; ++i) {
      scratch[i] = state[i] + 0.5 * dt * k2[i];
    }
    system.Derivative(t + 0.5 * dt, scratch, &k3);
    for (std::size_t i = 0; i < n; ++i) {
      scratch[i] = state[i] + dt * k3[i];
    }
    system.Derivative(t + dt, scratch, &k4);
    for (std::size_t i = 0; i < n; ++i) {
      state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    t = step * dt;
    if (step % options.record_every == 0) {
      trajectory.times.push_back(t);
      trajectory.observables.push_back(system.Observable(state));
    }
  }
  return trajectory;
}

ChainPendulumReference::ChainPendulumReference(const ChainPendulum& pendulum)
    : masses_(pendulum.masses()),
      gravity_(pendulum.gravity()),
      friction_(pendulum.friction()) {
  const std::size_t n = masses_.size();
  a_matrix_.assign(n, std::vector<double>(n, 0.0));
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) suffix[k] = suffix[k + 1] + masses_[k];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a_matrix_[i][j] = suffix[std::max(i, j)];
    }
  }
}

void ChainPendulumReference::Derivative(double /*t*/,
                                        const std::vector<double>& state,
                                        std::vector<double>* derivative) const {
  const std::size_t n = masses_.size();
  const double* theta = state.data();
  const double* omega = state.data() + n;

  double m[kMaxLinks][kMaxLinks];
  double rhs[kMaxLinks];
  double alpha[kMaxLinks];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -gravity_ * a_matrix_[i][i] * std::sin(theta[i]) -
                 friction_ * omega[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double delta = theta[i] - theta[j];
      m[i][j] = a_matrix_[i][j] * std::cos(delta);
      acc -= a_matrix_[i][j] * std::sin(delta) * omega[j] * omega[j];
    }
    rhs[i] = acc;
  }
  SolveSmallSystem(n, m, rhs, alpha);

  for (std::size_t i = 0; i < n; ++i) {
    (*derivative)[i] = omega[i];
    (*derivative)[n + i] = alpha[i];
  }
}

std::vector<double> ChainPendulumReference::Observable(
    const std::vector<double>& state) const {
  return std::vector<double>(state.begin(), state.begin() + masses_.size());
}

void LorenzReference::Derivative(double /*t*/,
                                 const std::vector<double>& state,
                                 std::vector<double>* derivative) const {
  const double x = state[0];
  const double y = state[1];
  const double z = state[2];
  (*derivative)[0] = sigma_ * (y - x);
  (*derivative)[1] = x * (rho_ - z) - y;
  (*derivative)[2] = x * y - beta_ * z;
}

void SeirReference::Derivative(double /*t*/, const std::vector<double>& state,
                               std::vector<double>* derivative) const {
  const double s = state[0];
  const double e = state[1];
  const double i = state[2];
  const double infection = beta_ * s * i;
  (*derivative)[0] = -infection;
  (*derivative)[1] = infection - sigma_ * e;
  (*derivative)[2] = sigma_ * e - gamma_ * i;
  (*derivative)[3] = gamma_ * i;
}

void DoublePendulumReference::Derivative(
    double /*t*/, const std::vector<double>& state,
    std::vector<double>* derivative) const {
  const double th1 = state[0];
  const double th2 = state[1];
  const double w1 = state[2];
  const double w2 = state[3];
  const double g = gravity_;
  const double m1 = m1_;
  const double m2 = m2_;
  const double delta = th1 - th2;
  const double denom = 2.0 * m1 + m2 - m2 * std::cos(2.0 * th1 - 2.0 * th2);

  const double a1 =
      (-g * (2.0 * m1 + m2) * std::sin(th1) -
       m2 * g * std::sin(th1 - 2.0 * th2) -
       2.0 * std::sin(delta) * m2 * (w2 * w2 + w1 * w1 * std::cos(delta))) /
      denom;
  const double a2 =
      (2.0 * std::sin(delta) *
       (w1 * w1 * (m1 + m2) + g * (m1 + m2) * std::cos(th1) +
        w2 * w2 * m2 * std::cos(delta))) /
      denom;

  (*derivative)[0] = w1;
  (*derivative)[1] = w2;
  (*derivative)[2] = a1;
  (*derivative)[3] = a2;
}

double PendulumEnergy(const ChainPendulum& pendulum,
                      const std::vector<double>& state) {
  const std::vector<double>& masses = pendulum.masses();
  const std::size_t n = masses.size();
  M2TD_CHECK(state.size() == 2 * n);
  const double* theta = state.data();
  const double* omega = state.data() + n;
  double energy = 0.0;
  double x = 0.0, y = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += std::sin(theta[i]);
    y -= std::cos(theta[i]);
    vx += std::cos(theta[i]) * omega[i];
    vy += std::sin(theta[i]) * omega[i];
    energy += masses[i] * (0.5 * (vx * vx + vy * vy) + pendulum.gravity() * y);
  }
  return energy;
}

}  // namespace m2td::sim
