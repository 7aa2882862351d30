#ifndef M2TD_LINALG_SVD_H_
#define M2TD_LINALG_SVD_H_

#include <vector>

#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "util/result.h"

namespace m2td::linalg {

/// Truncated SVD A ~= U diag(s) V^T.
struct SvdResult {
  /// Left singular vectors as columns (m x k).
  Matrix u;
  /// Singular values, decreasing (length k).
  std::vector<double> singular_values;
  /// Right singular vectors as columns (n x k).
  Matrix v;
};

/// \brief Truncated SVD of a dense matrix via eigendecomposition of the
/// smaller Gram matrix.
///
/// Appropriate for the shapes this library meets: one dimension small (a
/// mode length). For m <= n it eigendecomposes A A^T, otherwise A^T A, and
/// recovers the other side by multiplication; singular values below
/// `rank_truncation_tol * s_max` have their paired vectors zeroed rather
/// than divided by a tiny sigma.
Result<SvdResult> TruncatedSvd(const Matrix& a, std::size_t rank,
                               double rank_truncation_tol = 1e-12);

/// \brief Left singular vectors from a precomputed Gram matrix
/// G = X X^T.
///
/// This is the HOSVD entry point: the sparse tensor layer accumulates G
/// directly from COO data (never materializing the matricization), then
/// calls this. Returns an (n x rank) matrix; rank is clamped to n.
/// `eigen` selects the underlying symmetric eigensolver; the default
/// follows the process-wide DefaultEigenMethod().
Result<Matrix> LeftSingularVectorsFromGram(const Matrix& gram,
                                           std::size_t rank,
                                           const EigenOptions& eigen =
                                               EigenOptions());

}  // namespace m2td::linalg

#endif  // M2TD_LINALG_SVD_H_
