#ifndef M2TD_LINALG_EIGEN_H_
#define M2TD_LINALG_EIGEN_H_

#include <optional>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"
#include "util/result.h"

namespace m2td::linalg {

/// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct SymmetricEigenResult {
  /// Eigenvalues in decreasing order.
  std::vector<double> eigenvalues;
  /// Orthonormal eigenvectors as columns, ordered to match `eigenvalues`.
  Matrix eigenvectors;
  /// Work performed: full Jacobi sweeps for the Jacobi method, total
  /// implicit-shift QL iterations for the tridiagonal method.
  int sweeps = 0;
  /// True when the solver met its convergence criterion within its
  /// iteration budget. A non-converged result is still returned (the
  /// orthogonal transforms only ever improve the diagonalization) but
  /// the event is surfaced: `linalg.eigen.nonconverged` counter, a
  /// "nonconverged" annotation on the "symmetric_eigen" span, and a WARN
  /// log line.
  bool converged = false;
};

/// Algorithm used by SymmetricEigen for the symmetric eigenproblem.
enum class EigenMethod {
  /// Cyclic Jacobi rotations — the historical path, the default;
  /// O(n^3) per sweep.
  kJacobi,
  /// Householder tridiagonalization + implicit-shift QL with eigenvector
  /// accumulation — ~(4/3)n^3 once plus O(n^2) per eigenvalue, ~4-6x
  /// faster than Jacobi at n = 32..96. Changes fp summation order
  /// relative to Jacobi, so it is opt-in.
  kTridiagonalQL,
};

/// Stable lowercase name ("jacobi" / "tridiagonal_ql") for flags, spans,
/// and logs.
const char* EigenMethodName(EigenMethod method);

/// Parses an EigenMethodName back into the enum. Returns false (leaving
/// `*out` untouched) for unknown names.
bool ParseEigenMethod(std::string_view name, EigenMethod* out);

/// Sets the process-wide default eigensolver used whenever
/// `EigenOptions::method` is unset — the hook behind `m2td_cli
/// --eigen_method`, covering every Gram solve in the pipeline (HOSVD,
/// HOOI, M2TD pivot/sub-factor solves, refinement) without threading an
/// option through each call site. Starts as kJacobi, keeping the default
/// build bit-identical to the pre-QL library.
void SetDefaultEigenMethod(EigenMethod method);

/// The current process-wide default eigensolver.
EigenMethod DefaultEigenMethod();

/// Options for SymmetricEigen. Default-constructed options reproduce the
/// historical cyclic-Jacobi behavior exactly.
struct EigenOptions {
  /// Jacobi convergence threshold on the off-diagonal Frobenius norm
  /// relative to the matrix Frobenius norm. The QL path instead deflates
  /// on machine-epsilon-relative subdiagonal decay (the standard tql2
  /// criterion), which is tighter than any practical tolerance here.
  double tolerance = 1e-12;
  /// Maximum number of full Jacobi sweeps over all off-diagonal pairs.
  int max_sweeps = 64;
  /// Maximum implicit-shift QL iterations per eigenvalue (tridiagonal
  /// method only; 30 is the classical EISPACK budget).
  int max_ql_iterations = 30;
  /// Solver selection; unset means DefaultEigenMethod().
  std::optional<EigenMethod> method;
};

/// \brief Eigendecomposition of a symmetric matrix.
///
/// Two methods, selected by `options.method` (falling back to the
/// process default, initially Jacobi):
///
/// **kJacobi** — cyclic Jacobi rotations. Unconditionally robust and
/// simple; O(n^2) rotations per sweep, O(n) work each — O(n^3) per
/// sweep, typically a handful of sweeps. Each rotation is a strided
/// column update, a 2x2 block, and the `simd::Kernels::rot` row kernel
/// over rows p and q of A and of the transposed eigenvector basis.
///
/// **kTridiagonalQL** — Householder reduction to tridiagonal form with
/// accumulation of the orthogonal transform, then implicit-shift QL on
/// the tridiagonal matrix with the rotations applied to the accumulated
/// basis (tred2/tql2 lineage). ~(4/3)n^3 flops once plus O(n^2) per
/// eigenvalue. The reduction runs as row sweeps and the basis rotations
/// as `rot` over rows of its transpose. ~4-6x faster than Jacobi at the
/// Gram sizes this library eigendecomposes (n = 32..96 measured; see
/// docs/PERFORMANCE.md). Reassociates fp sums relative to Jacobi, so it
/// ships opt-in behind `--eigen_method=tridiagonal_ql` with Jacobi
/// gating it in bench-smoke.
///
/// Both methods give the same bits at every SIMD dispatch level (`rot` is
/// FMA-free, and this file and the rot bodies are compiled with
/// -ffp-contract=off) and as the element-by-element loops they replaced
/// (tests/oracles/symmetric_eigen_reference.h). Tested on x86-64; no
/// AArch64 host has run the tests yet.
///
/// Returns InvalidArgument for non-square input, for any NaN or Inf
/// entry, and for non-symmetric (beyond 1e-9 relative) input. The
/// solvers read both triangles as given.
///
/// Observability: one "symmetric_eigen" span per solve (n >= 2),
/// annotated `method` and `n`; counters `linalg.eigen.jacobi_solves` /
/// `jacobi_sweeps` and `linalg.eigen.ql_solves` / `ql_iterations`.
///
/// Thread-safety/parallelism: safe to call concurrently; inputs are
/// const and all state is local. Rotations run serially; the two O(n^2)
/// scans (the finiteness and symmetry check, span "symmetry_check", an
/// exact max; and the Jacobi off-diagonal norm, span "offdiag_norm", an
/// ordered sum) run as ParallelReduce on parallel::GlobalPool() once
/// n >= 64. Both reductions merge fixed, pool-size-independent chunks in
/// ascending order, so the returned eigenpairs are bit-identical across
/// `--threads` values for either method.
///
/// Cancellation: the ambient robust::CancelToken is checked once per
/// Jacobi sweep / QL deflation step; a fired token returns
/// Status::Cancelled / DeadlineExceeded (callers like HOOI translate
/// that into best-so-far results).
Result<SymmetricEigenResult> SymmetricEigen(
    const Matrix& a, const EigenOptions& options = EigenOptions());

/// \brief Leading `rank` eigenvectors of a symmetric positive semi-definite
/// Gram matrix, as an (n x rank) matrix of columns.
///
/// This is the workhorse of HOSVD in this library: the left singular
/// vectors of a matricization X_(n) are the eigenvectors of the Gram matrix
/// X_(n) X_(n)^T, which stays small even when X_(n) has astronomically many
/// columns. `rank` is clamped to n.
Result<Matrix> LeadingEigenvectors(const Matrix& gram, std::size_t rank,
                                   const EigenOptions& options =
                                       EigenOptions());

}  // namespace m2td::linalg

#endif  // M2TD_LINALG_EIGEN_H_
