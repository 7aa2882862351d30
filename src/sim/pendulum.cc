#include "sim/pendulum.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace m2td::sim {

namespace {

/// Upper bound on chain length; BatchDerivative instantiates its kernel
/// once per length, so every array sits on the stack at its exact size.
constexpr std::size_t kMaxLinks = 8;

constexpr std::size_t B = kBatchLanes;

/// In-place Gaussian elimination with partial pivoting on a batch of n x n
/// systems stored [row][column][lane]; the solution of lane b goes to
/// out[i * B + b]. Lanes [0, count) advance side by side: each picks its
/// own pivot rows and skips its own zero factors through selects, so every
/// lane runs the operations of a one-system elimination. The mass matrix
/// of a physical pendulum is symmetric positive definite, so singularity
/// here is a programming error.
template <std::size_t n, std::size_t count>
void SolveSmallSystems(double (&m)[n][n][B], double (&rhs)[n][B],
                       double* out) {
  for (std::size_t col = 0; col < n; ++col) {
    double best[B];
    std::size_t pivot[B];
    for (std::size_t b = 0; b < count; ++b) {
      best[b] = std::fabs(m[col][col][b]);
      pivot[b] = col;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      for (std::size_t b = 0; b < count; ++b) {
        const double v = std::fabs(m[r][col][b]);
        const bool larger = v > best[b];
        best[b] = larger ? v : best[b];
        pivot[b] = larger ? r : pivot[b];
      }
    }
    bool regular = true;
    for (std::size_t b = 0; b < count; ++b) regular &= best[b] > 1e-300;
    M2TD_CHECK(regular) << "singular pendulum mass matrix";
    for (std::size_t r = col + 1; r < n; ++r) {
      for (std::size_t j = col; j < n; ++j) {
        for (std::size_t b = 0; b < count; ++b) {
          const bool swap = pivot[b] == r;
          const double top = m[col][j][b];
          m[col][j][b] = swap ? m[r][j][b] : top;
          m[r][j][b] = swap ? top : m[r][j][b];
        }
      }
      for (std::size_t b = 0; b < count; ++b) {
        const bool swap = pivot[b] == r;
        const double top = rhs[col][b];
        rhs[col][b] = swap ? rhs[r][b] : top;
        rhs[r][b] = swap ? top : rhs[r][b];
      }
    }
    double inv[B];
    for (std::size_t b = 0; b < count; ++b) inv[b] = 1.0 / m[col][col][b];
    for (std::size_t r = col + 1; r < n; ++r) {
      double factor[B];
      for (std::size_t b = 0; b < count; ++b) {
        factor[b] = m[r][col][b] * inv[b];
      }
      for (std::size_t j = col; j < n; ++j) {
        for (std::size_t b = 0; b < count; ++b) {
          const double eliminated = m[r][j][b] - factor[b] * m[col][j][b];
          m[r][j][b] = factor[b] == 0.0 ? m[r][j][b] : eliminated;
        }
      }
      for (std::size_t b = 0; b < count; ++b) {
        const double eliminated = rhs[r][b] - factor[b] * rhs[col][b];
        rhs[r][b] = factor[b] == 0.0 ? rhs[r][b] : eliminated;
      }
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    for (std::size_t b = 0; b < count; ++b) {
      double sum = rhs[ri][b];
      for (std::size_t j = ri + 1; j < n; ++j) {
        sum -= m[ri][j][b] * out[j * B + b];
      }
      out[ri * B + b] = sum / m[ri][ri][b];
    }
  }
}

}  // namespace

Result<ChainPendulum> ChainPendulum::Create(std::vector<double> masses,
                                            double gravity, double friction) {
  if (masses.empty()) {
    return Status::InvalidArgument("pendulum needs at least one link");
  }
  if (masses.size() > kMaxLinks) {
    return Status::InvalidArgument("pendulum supports at most 8 links");
  }
  for (double m : masses) {
    if (!(m > 0.0)) {
      return Status::InvalidArgument("all masses must be positive");
    }
  }
  if (friction < 0.0) {
    return Status::InvalidArgument("friction must be non-negative");
  }
  return ChainPendulum(std::move(masses), gravity, friction);
}

ChainPendulum::ChainPendulum(std::vector<double> masses, double gravity,
                             double friction)
    : masses_(std::move(masses)), gravity_(gravity), friction_(friction) {
  const std::size_t n = masses_.size();
  a_matrix_.assign(n, std::vector<double>(n, 0.0));
  // Suffix sums of masses: A_ij = sum_{k >= max(i,j)} m_k.
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) suffix[k] = suffix[k + 1] + masses_[k];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a_matrix_[i][j] = suffix[std::max(i, j)];
    }
  }
}

template <std::size_t n, std::size_t count>
void ChainPendulum::BatchKernel(const OdeSystem* const* lanes,
                                const double* state, double* derivative) {
  const double* theta = state;
  const double* omega = state + n * B;
  double a[n][n][B];
  double neg_gravity[B];
  double friction[B];
  for (std::size_t b = 0; b < count; ++b) {
    const auto& lane = static_cast<const ChainPendulum&>(*lanes[b]);
    neg_gravity[b] = -lane.gravity_;
    friction[b] = lane.friction_;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a[i][j][b] = lane.a_matrix_[i][j];
    }
  }

  // sin and cos of every link pair's angle difference, one call each per
  // pair: th_j - th_i = -(th_i - th_j) exactly in IEEE arithmetic, and sin
  // is odd and cos even, so the mirrored entries are the values the calls
  // would return. On the diagonal th_i - th_i is +0 (NaN for a non-finite
  // angle), where sin returns its argument and cos returns 1 + it.
  double sin_theta[n][B];
  double sin_delta[n][n][B];
  double cos_delta[n][n][B];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < count; ++b) {
      const double zero = theta[i * B + b] - theta[i * B + b];
      sin_delta[i][i][b] = zero;
      cos_delta[i][i][b] = 1.0 + zero;
      sin_theta[i][b] = std::sin(theta[i * B + b]);
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t b = 0; b < count; ++b) {
        const double delta = theta[i * B + b] - theta[j * B + b];
        sin_delta[i][j][b] = std::sin(delta);
        cos_delta[i][j][b] = std::cos(delta);
        sin_delta[j][i][b] = -sin_delta[i][j][b];
        cos_delta[j][i][b] = cos_delta[i][j][b];
      }
    }
  }

  // The mass matrix and right-hand side in the scalar operation order: the
  // gravity and friction terms, then one term per link j.
  double m[n][n][B];
  double rhs[n][B];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < count; ++b) {
      rhs[i][b] = neg_gravity[b] * a[i][i][b] * sin_theta[i][b] -
                  friction[b] * omega[i * B + b];
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t b = 0; b < count; ++b) {
        const double w = omega[j * B + b];
        m[i][j][b] = a[i][j][b] * cos_delta[i][j][b];
        rhs[i][b] -= a[i][j][b] * sin_delta[i][j][b] * w * w;
      }
    }
  }
  SolveSmallSystems<n, count>(m, rhs, derivative + n * B);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < count; ++b) {
      derivative[i * B + b] = omega[i * B + b];
    }
  }
}

template <std::size_t n>
void ChainPendulum::BatchKernel(std::span<const OdeSystem* const> lanes,
                                const double* state, double* derivative) {
  // The lane count is a constant, so the compiler unrolls every lane loop
  // and vectorizes the full batch's. A partial batch runs lane by lane:
  // lane b's component i sits at (state + b)[i * B].
  if (lanes.size() == B) {
    BatchKernel<n, B>(lanes.data(), state, derivative);
    return;
  }
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    BatchKernel<n, 1>(lanes.data() + b, state + b, derivative + b);
  }
}

void ChainPendulum::BatchDerivative(double /*t*/,
                                    std::span<const OdeSystem* const> lanes,
                                    const double* state,
                                    double* derivative) const {
  switch (masses_.size()) {
    case 1: return BatchKernel<1>(lanes, state, derivative);
    case 2: return BatchKernel<2>(lanes, state, derivative);
    case 3: return BatchKernel<3>(lanes, state, derivative);
    case 4: return BatchKernel<4>(lanes, state, derivative);
    case 5: return BatchKernel<5>(lanes, state, derivative);
    case 6: return BatchKernel<6>(lanes, state, derivative);
    case 7: return BatchKernel<7>(lanes, state, derivative);
    case 8: return BatchKernel<8>(lanes, state, derivative);
  }
}

std::vector<double> ChainPendulum::Observable(
    const std::vector<double>& state) const {
  const std::size_t n = masses_.size();
  return std::vector<double>(state.begin(), state.begin() + n);
}

std::vector<double> ChainPendulum::InitialState(
    const std::vector<double>& initial_angles) const {
  M2TD_CHECK(initial_angles.size() == masses_.size())
      << "one initial angle per link required";
  std::vector<double> state(2 * masses_.size(), 0.0);
  for (std::size_t i = 0; i < initial_angles.size(); ++i) {
    state[i] = initial_angles[i];
  }
  return state;
}

}  // namespace m2td::sim
