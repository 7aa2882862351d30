#include "linalg/eigen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "robust/cancel.h"
#include "util/logging.h"

namespace m2td::linalg {

namespace {

// Rows below this stay serial: a Jacobi convergence check on a small
// Gram matrix is cheaper than a pool region.
constexpr std::size_t kParallelEigenRows = 64;

std::atomic<EigenMethod> g_default_method{EigenMethod::kJacobi};

double OffDiagonalNorm(const Matrix& a) {
  const std::size_t n = a.rows();
  auto row_range_sum = [&a, n](std::uint64_t rb, std::uint64_t re) {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(rb);
         i < static_cast<std::size_t>(re); ++i) {
      const double* row = a.RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) sum += row[j] * row[j];
      }
    }
    return sum;
  };
  if (n < kParallelEigenRows) {
    return std::sqrt(row_range_sum(0, n));
  }
  // Ordered chunk merge keeps the summation association a pure function
  // of the matrix size; results match across thread counts (though they
  // reassociate relative to the small-matrix serial path, which is a
  // size-based, thread-independent choice).
  const double sum = parallel::ParallelReduce<double>(
      0, n, 0, 0.0, row_range_sum,
      [](double& acc, double partial) { acc += partial; },
      "offdiag_norm");
  return std::sqrt(sum);
}

// Sorts (diag, rows of vt) by decreasing diag into a packed result whose
// eigenvectors are columns: row j of `vt` is the eigenvector of diag[j].
SymmetricEigenResult PackSortedEigenpairs(const std::vector<double>& diag,
                                          const Matrix& vt, int sweeps,
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
  double* out = result.eigenvectors.mutable_data().data();
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = diag[order[j]];
    const double* vec = vt.RowPtr(order[j]);
    for (std::size_t i = 0; i < n; ++i) out[i * n + j] = vec[i];
  }
  return result;
}

Result<SymmetricEigenResult> SymmetricEigenJacobi(const Matrix& input,
                                                  const EigenOptions& options,
                                                  double fro) {
  const std::size_t n = input.rows();
  M2TD_CHECK(input.cols() == n && n >= 2);
  Matrix a = input;
  double* a_data = a.mutable_data().data();
  // Transposed eigenvector basis: row j is eigenvector j, so the basis
  // update of a rotation is a contiguous two-row kernel.
  Matrix vt = Matrix::Identity(n);
  const simd::Kernels& kernels = simd::ActiveKernels();

  obs::ObsSpan span("symmetric_eigen");
  span.Annotate("method", std::string_view("jacobi"));
  span.Annotate("n", static_cast<std::uint64_t>(n));
  obs::GetCounter("linalg.eigen.jacobi_solves").Increment();
  const double threshold = options.tolerance * std::max(fro, 1e-300);
  int sweeps = 0;
  bool converged = false;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    // Per-sweep cancellation point: a fired ambient token abandons the
    // solve (HOOI converts this into best-so-far factors upstream).
    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
    if (OffDiagonalNorm(a) <= threshold) {
      converged = true;
      break;
    }
    ++sweeps;
    for (std::size_t p = 0; p < n - 1; ++p) {
      double* row_p = a_data + p * n;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* row_q = a_data + q * n;
        const double apq = row_p[q];
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = row_p[p];
        const double aqp = row_q[p];
        const double aqq = row_q[q];
        // Classic stable rotation computation.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Apply rotation J(p, q, theta) on both sides of A: columns p and
        // q first, then rows p and q. Outside the 2x2 block {p, q}^2 the
        // two passes touch disjoint entries, so the column pass runs on
        // the other rows, the block is rotated on both sides from its
        // pre-rotation values (same products and sums as column then
        // row), and the row pass is one contiguous kernel call whose
        // block entries are then overwritten.
        auto column_pass = [&](std::size_t k_begin, std::size_t k_end) {
          for (std::size_t k = k_begin; k < k_end; ++k) {
            double* row_k = a_data + k * n;
            const double akp = row_k[p];
            const double akq = row_k[q];
            row_k[p] = c * akp - s * akq;
            row_k[q] = s * akp + c * akq;
          }
        };
        column_pass(0, p);
        column_pass(p + 1, q);
        column_pass(q + 1, n);
        const double cpp = c * app - s * apq;  // column pass, row p
        const double cpq = s * app + c * apq;
        const double cqp = c * aqp - s * aqq;  // column pass, row q
        const double cqq = s * aqp + c * aqq;
        kernels.rot(n, c, s, row_p, row_q);
        row_p[p] = c * cpp - s * cqp;
        row_q[p] = s * cpp + c * cqp;
        row_p[q] = c * cpq - s * cqq;
        row_q[q] = s * cpq + c * cqq;
        // Accumulate eigenvectors.
        kernels.rot(n, c, s, vt.RowPtr(p), vt.RowPtr(q));
      }
    }
  }
  obs::GetCounter("linalg.eigen.jacobi_sweeps")
      .Add(static_cast<std::uint64_t>(sweeps));

  // The loop exits non-converged only when every allowed sweep ran; the
  // last sweep may still have met the tolerance, so re-check before
  // declaring failure.
  double final_norm = 0.0;
  if (!converged) {
    final_norm = OffDiagonalNorm(a);
    converged = final_norm <= threshold;
  }
  if (!converged) {
    obs::GetCounter("linalg.eigen.nonconverged").Increment();
    span.Annotate("nonconverged", std::string_view("true"));
    span.Annotate("offdiag_norm", final_norm);
    M2TD_LOG_WARNING() << "Jacobi eigensolver: not converged after "
                       << options.max_sweeps << " sweeps (off-diagonal norm "
                       << final_norm << " > threshold " << threshold
                       << "); returning the partial diagonalization";
  }

  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a.RowPtr(i)[i];
  return PackSortedEigenpairs(diag, vt, sweeps, converged);
}

// Householder reduction of the symmetric matrix held in `z` to
// tridiagonal form (tred2 lineage): on return `d` holds the diagonal,
// `e` the subdiagonal (e[0] = 0), and `z` the accumulated orthogonal
// transform Q with Q^T A Q tridiagonal. Row-oriented: every sum that
// tred2 takes down a column is scattered row by row in ascending order
// instead, so each output receives the same terms in the same order.
void HouseholderTridiagonalize(Matrix& z, std::vector<double>& d,
                               std::vector<double>& e) {
  const std::size_t n = d.size();
  M2TD_CHECK(z.rows() == n && z.cols() == n && e.size() == n && n >= 2);
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* row_i = z.RowPtr(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(row_i[k]);
      if (scale == 0.0) {
        e[i] = row_i[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          row_i[k] /= scale;
          h += row_i[k] * row_i[k];
        }
        double f = row_i[l];
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        row_i[l] = f - g;
        // e[j] = (sum_{k<=j} z(j,k) z(i,k) + sum_{j<k<=l} z(k,j) z(i,k))
        // / h: the first sum along row j, the second scattered from
        // rows k = j+1 .. l in ascending order.
        for (std::size_t j = 0; j <= l; ++j) {
          double* row_j = z.RowPtr(j);
          row_j[i] = row_i[j] / h;
          double sum = 0.0;
          for (std::size_t k = 0; k <= j; ++k) sum += row_j[k] * row_i[k];
          e[j] = sum;
        }
        for (std::size_t k = 1; k <= l; ++k) {
          const double* row_k = z.RowPtr(k);
          const double zik = row_i[k];
          for (std::size_t j = 0; j < k; ++j) e[j] += row_k[j] * zik;
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * row_i[j];
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = row_i[j];
          g = e[j] - hh * f;
          e[j] = g;
          double* row_j = z.RowPtr(j);
          for (std::size_t k = 0; k <= j; ++k) {
            row_j[k] -= f * e[k] + g * row_i[k];
          }
        }
      }
    } else {
      e[i] = row_i[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the product of the Householder reflectors into z:
  // g[j] = sum_{k<i} z(i,k) z(k,j) scattered from rows k = 0 .. i-1,
  // then each row k < i takes z(k,j) -= g[j] z(k,i).
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row_i = z.RowPtr(i);
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        const double* row_k = z.RowPtr(k);
        const double zik = row_i[k];
        for (std::size_t j = 0; j < i; ++j) g[j] += zik * row_k[j];
      }
      for (std::size_t k = 0; k < i; ++k) {
        double* row_k = z.RowPtr(k);
        const double zki = row_k[i];
        for (std::size_t j = 0; j < i; ++j) row_k[j] -= g[j] * zki;
      }
    }
    d[i] = row_i[i];
    row_i[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z.RowPtr(j)[i] = 0.0;
      row_i[j] = 0.0;
    }
  }
}

Result<SymmetricEigenResult> SymmetricEigenTridiagonalQL(
    const Matrix& input, const EigenOptions& options) {
  const std::size_t n = input.rows();
  M2TD_CHECK(input.cols() == n && n >= 2);
  const simd::Kernels& kernels = simd::ActiveKernels();
  obs::ObsSpan span("symmetric_eigen");
  span.Annotate("method", std::string_view("tridiagonal_ql"));
  span.Annotate("n", static_cast<std::uint64_t>(n));
  obs::GetCounter("linalg.eigen.ql_solves").Increment();

  Matrix z = input;
  std::vector<double> d(n, 0.0);
  std::vector<double> e(n, 0.0);
  HouseholderTridiagonalize(z, d, e);
  // Transposed basis: tql2 rotates columns of z, which are rows of zt.
  Matrix zt = z.Transposed();

  // Implicit-shift QL on the tridiagonal (d, e) with the plane rotations
  // applied to the accumulated basis (tql2 lineage). Subdiagonal entries
  // deflate once they are negligible relative to their neighboring
  // diagonals — the machine-epsilon criterion, independent of
  // options.tolerance.
  const int ni = static_cast<int>(n);
  const double eps = std::numeric_limits<double>::epsilon();
  for (int i = 1; i < ni; ++i) e[i - 1] = e[i];
  e[ni - 1] = 0.0;
  int total_iterations = 0;
  bool converged = true;
  for (int l = 0; l < ni; ++l) {
    // Per-eigenvalue cancellation point, mirroring Jacobi's per-sweep
    // check.
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
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Recover from underflow: skip the rest of this QL step.
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
        // Rotate the accumulated basis: basis vectors i and i+1.
        kernels.rot(n, c, s, zt.RowPtr(i), zt.RowPtr(i + 1));
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
    if (!converged) break;
  }

  obs::GetCounter("linalg.eigen.ql_iterations")
      .Add(static_cast<std::uint64_t>(total_iterations));
  if (!converged) {
    obs::GetCounter("linalg.eigen.nonconverged").Increment();
    span.Annotate("nonconverged", std::string_view("true"));
    M2TD_LOG_WARNING() << "QL eigensolver: an eigenvalue did not converge "
                          "within "
                       << options.max_ql_iterations
                       << " implicit-shift iterations; returning the "
                          "partial diagonalization";
  }
  return PackSortedEigenpairs(d, zt, total_iterations, converged);
}

}  // namespace

const char* EigenMethodName(EigenMethod method) {
  switch (method) {
    case EigenMethod::kTridiagonalQL:
      return "tridiagonal_ql";
    case EigenMethod::kJacobi:
      break;
  }
  return "jacobi";
}

bool ParseEigenMethod(std::string_view name, EigenMethod* out) {
  if (name == "jacobi") {
    *out = EigenMethod::kJacobi;
  } else if (name == "tridiagonal_ql") {
    *out = EigenMethod::kTridiagonalQL;
  } else {
    return false;
  }
  return true;
}

void SetDefaultEigenMethod(EigenMethod method) {
  g_default_method.store(method, std::memory_order_release);
}

EigenMethod DefaultEigenMethod() {
  return g_default_method.load(std::memory_order_acquire);
}

Result<SymmetricEigenResult> SymmetricEigen(const Matrix& input,
                                            const EigenOptions& options) {
  const std::size_t n = input.rows();
  if (input.cols() != n) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const double fro = input.FrobeniusNorm();
  // One O(n^2) scan over row i's diagonal and its upper-triangle pairs
  // (i, j) / (j, i): every entry is checked finite, and the max
  // asymmetry is taken. max() is exact (no rounding), so any chunking
  // gives the identical value; the reduce is only worth a region on
  // matrices past the size guard.
  struct Scan {
    double worst_asymmetry = 0.0;
    bool finite = true;
  };
  auto scan_rows = [&input, n](std::uint64_t rb, std::uint64_t re) {
    Scan scan;
    for (std::size_t i = static_cast<std::size_t>(rb);
         i < static_cast<std::size_t>(re); ++i) {
      const double* row = input.RowPtr(i);
      scan.finite = scan.finite && std::isfinite(row[i]);
      for (std::size_t j = i + 1; j < n; ++j) {
        const double upper = row[j];
        const double lower = input.RowPtr(j)[i];
        scan.finite =
            scan.finite && std::isfinite(upper) && std::isfinite(lower);
        scan.worst_asymmetry =
            std::max(scan.worst_asymmetry, std::fabs(upper - lower));
      }
    }
    return scan;
  };
  const Scan scan =
      n < kParallelEigenRows
          ? scan_rows(0, n)
          : parallel::ParallelReduce<Scan>(
                0, n, 0, Scan{}, scan_rows,
                [](Scan& acc, const Scan& partial) {
                  acc.worst_asymmetry =
                      std::max(acc.worst_asymmetry, partial.worst_asymmetry);
                  acc.finite = acc.finite && partial.finite;
                },
                "symmetry_check");
  // Checked first: a NaN drops out of max() and an Inf makes the
  // tolerance infinite, so non-finite input would pass the symmetry test
  // and come back as "converged" garbage.
  if (!scan.finite) {
    return Status::InvalidArgument(
        "SymmetricEigen: matrix has a non-finite entry");
  }
  if (scan.worst_asymmetry > 1e-9 * std::max(1.0, fro)) {
    return Status::InvalidArgument("SymmetricEigen: matrix not symmetric");
  }

  if (n <= 1) {
    SymmetricEigenResult result;
    result.eigenvalues.assign(n, n == 1 ? input.RowPtr(0)[0] : 0.0);
    result.eigenvectors = Matrix::Identity(n);
    result.converged = true;
    return result;
  }

  const EigenMethod method = options.method.value_or(DefaultEigenMethod());
  if (method == EigenMethod::kTridiagonalQL) {
    return SymmetricEigenTridiagonalQL(input, options);
  }
  return SymmetricEigenJacobi(input, options, fro);
}

Result<Matrix> LeadingEigenvectors(const Matrix& gram, std::size_t rank,
                                   const EigenOptions& options) {
  M2TD_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                        SymmetricEigen(gram, options));
  const std::size_t k = std::min(rank, gram.rows());
  return eig.eigenvectors.LeadingColumns(k);
}

}  // namespace m2td::linalg
