#ifndef M2TD_TESTS_ORACLES_SYMMETRIC_EIGEN_REFERENCE_H_
#define M2TD_TESTS_ORACLES_SYMMETRIC_EIGEN_REFERENCE_H_

#include <cstddef>

#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "util/result.h"

namespace m2td::linalg {

/// \brief Element-accessor cyclic Jacobi: the solver SymmetricEigen ran
/// before its rotations became contiguous row kernels.
///
/// Test oracle only (no production caller). Two-sided rotations walk
/// columns then rows of the full matrix through `Matrix::operator()`,
/// and the eigenvectors accumulate as columns. `input` must already
/// have passed SymmetricEigen's validation (square, n >= 2, symmetric
/// within tolerance, finite). Honors `tolerance` and `max_sweeps`,
/// checks the ambient cancel token once per sweep, and emits no spans,
/// counters or logs. The kJacobi method must be bit-identical to it.
Result<SymmetricEigenResult> SymmetricEigenJacobiReference(
    const Matrix& input, const EigenOptions& options);

/// \brief Element-accessor Householder tridiagonalization (tred2) plus
/// implicit-shift QL (tql2) with the rotations applied to the columns
/// of the accumulated basis.
///
/// Test oracle only, same preconditions and silence as
/// SymmetricEigenJacobiReference; honors `max_ql_iterations`. The
/// kTridiagonalQL method must be bit-identical to it.
Result<SymmetricEigenResult> SymmetricEigenQlReference(
    const Matrix& input, const EigenOptions& options);

/// \brief The plain plane-rotation loop: for i in [0, n), with xi and yi
/// read first, x[i] = c * xi - s * yi and y[i] = s * xi + c * yi.
///
/// Test oracle only. Like the two solvers above, this file is compiled
/// with -ffp-contract=off, so every product is rounded on its own. Every
/// `simd::Kernels::rot` table must be bit-identical to it.
void RotReference(std::size_t n, double c, double s, double* x, double* y);

}  // namespace m2td::linalg

#endif  // M2TD_TESTS_ORACLES_SYMMETRIC_EIGEN_REFERENCE_H_
