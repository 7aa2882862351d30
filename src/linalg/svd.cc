#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.h"
#include "obs/trace.h"

namespace m2td::linalg {

Result<SvdResult> TruncatedSvd(const Matrix& a, std::size_t rank,
                               double rank_truncation_tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("TruncatedSvd on empty matrix");
  }
  const std::size_t k = std::min({rank, m, n});
  obs::ObsSpan span("truncated_svd");
  span.Annotate("m", static_cast<std::uint64_t>(m));
  span.Annotate("n", static_cast<std::uint64_t>(n));
  span.Annotate("rank", static_cast<std::uint64_t>(k));

  const bool left_small = m <= n;
  // Gram of the small side.
  Matrix gram = left_small ? MultiplyTransB(a, a)   // A A^T, m x m
                           : MultiplyTransA(a, a);  // A^T A, n x n

  M2TD_ASSIGN_OR_RETURN(SymmetricEigenResult eig, SymmetricEigen(gram));

  SvdResult out;
  out.singular_values.resize(k);
  double s_max = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    out.singular_values[i] = std::sqrt(std::max(0.0, eig.eigenvalues[i]));
    s_max = std::max(s_max, out.singular_values[i]);
  }

  Matrix small_vectors = eig.eigenvectors.LeadingColumns(k);
  if (left_small) {
    out.u = small_vectors;
    // V = A^T U diag(1/s).
    Matrix v = MultiplyTransA(a, out.u);  // n x k
    for (std::size_t j = 0; j < k; ++j) {
      const double s = out.singular_values[j];
      const double inv = (s > rank_truncation_tol * s_max && s > 0.0)
                             ? 1.0 / s
                             : 0.0;
      for (std::size_t i = 0; i < v.rows(); ++i) v(i, j) *= inv;
    }
    out.v = std::move(v);
  } else {
    out.v = small_vectors;
    // U = A V diag(1/s).
    Matrix u = Multiply(a, out.v);  // m x k
    for (std::size_t j = 0; j < k; ++j) {
      const double s = out.singular_values[j];
      const double inv = (s > rank_truncation_tol * s_max && s > 0.0)
                             ? 1.0 / s
                             : 0.0;
      for (std::size_t i = 0; i < u.rows(); ++i) u(i, j) *= inv;
    }
    out.u = std::move(u);
  }
  return out;
}

Result<Matrix> LeftSingularVectorsFromGram(const Matrix& gram,
                                           std::size_t rank,
                                           const EigenOptions& eigen) {
  return LeadingEigenvectors(gram, rank, eigen);
}

}  // namespace m2td::linalg
