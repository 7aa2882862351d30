#include "oracles/symmetric_eigen_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "parallel/parallel_for.h"
#include "robust/cancel.h"

namespace m2td::linalg {

namespace {

constexpr std::size_t kParallelEigenRows = 64;

double OffDiagonalNorm(const Matrix& a) {
  auto row_range_sum = [&a](std::uint64_t rb, std::uint64_t re) {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(rb);
         i < static_cast<std::size_t>(re); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (i != j) sum += a(i, j) * a(i, j);
      }
    }
    return sum;
  };
  if (a.rows() < kParallelEigenRows) {
    return std::sqrt(row_range_sum(0, a.rows()));
  }
  const double sum = parallel::ParallelReduce<double>(
      0, a.rows(), 0, 0.0, row_range_sum,
      [](double& acc, double partial) { acc += partial; },
      "offdiag_norm");
  return std::sqrt(sum);
}

// Sorts (diag, columns of v) by decreasing diag into a packed result.
SymmetricEigenResult PackSortedEigenpairs(const std::vector<double>& diag,
                                          const Matrix& v, int sweeps,
                                          bool converged) {
  const std::size_t n = diag.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&diag](std::size_t x, std::size_t y) {
    return diag[x] > diag[y];
  });

  SymmetricEigenResult result;
  result.sweeps = sweeps;
  result.converged = converged;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      result.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return result;
}

void HouseholderTridiagonalize(Matrix& z, std::vector<double>& d,
                               std::vector<double>& e) {
  const int n = static_cast<int>(d.size());
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += z(i, k) * z(k, j);
        for (int k = 0; k <= l; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

}  // namespace

Result<SymmetricEigenResult> SymmetricEigenJacobiReference(
    const Matrix& input, const EigenOptions& options) {
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::Identity(n);

  const double fro = input.FrobeniusNorm();
  const double threshold = options.tolerance * std::max(fro, 1e-300);
  int sweeps = 0;
  bool converged = false;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    if (OffDiagonalNorm(a) <= threshold) {
      converged = true;
      break;
    }
    ++sweeps;
    for (std::size_t p = 0; p < n - 1; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (!converged) converged = OffDiagonalNorm(a) <= threshold;

  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  return PackSortedEigenpairs(diag, v, sweeps, converged);
}

Result<SymmetricEigenResult> SymmetricEigenQlReference(
    const Matrix& input, const EigenOptions& options) {
  const std::size_t n = input.rows();
  Matrix z = input;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  HouseholderTridiagonalize(z, d, e);

  const int ni = static_cast<int>(n);
  const double eps = std::numeric_limits<double>::epsilon();
  for (int i = 1; i < ni; ++i) e[i - 1] = e[i];
  e[ni - 1] = 0.0;
  int total_iterations = 0;
  bool converged = true;
  for (int l = 0; l < ni; ++l) {
    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < ni - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= eps * dd) break;
      }
      if (m == l) break;
      if (iter == options.max_ql_iterations) {
        converged = false;
        break;
      }
      ++iter;
      ++total_iterations;
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (int i = m - 1; i >= l; --i) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        for (int k = 0; k < ni; ++k) {
          f = z(k, i + 1);
          z(k, i + 1) = s * z(k, i) + c * f;
          z(k, i) = c * z(k, i) - s * f;
        }
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
    if (!converged) break;
  }
  return PackSortedEigenpairs(d, z, total_iterations, converged);
}

void RotReference(std::size_t n, double c, double s, double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

}  // namespace m2td::linalg
