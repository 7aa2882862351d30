#ifndef M2TD_LINALG_RSVD_H_
#define M2TD_LINALG_RSVD_H_

#include "linalg/svd.h"
#include "util/random.h"
#include "util/result.h"

namespace m2td::linalg {

/// Options for the randomized range finder.
struct RandomizedSvdOptions {
  /// Extra sampled dimensions beyond the target rank (Halko et al.'s p).
  std::size_t oversampling = 8;
  /// Subspace (power) iterations; 1-2 sharpen decaying spectra.
  int power_iterations = 2;
  std::uint64_t seed = 3;
};

/// \brief Sketched leading-eigenvector factor of a symmetric PSD matrix —
/// the randomized replacement for the full Gram + Jacobi factor solve.
///
/// Draws a Gaussian test matrix Omega (n x s, s = rank + oversampling),
/// runs `power_iterations` rounds of subspace iteration Y = A (Q R(Y))
/// with re-orthonormalization, projects B = Q^T A Q (s x s), solves the
/// *small* eigenproblem exactly with the same cyclic Jacobi the
/// deterministic path uses, and lifts: U = Q V_k. The O(n^3)-per-sweep
/// Jacobi on the n x n Gram becomes an O(s^3) solve plus a handful of
/// n x s multiplies — the win the MACH sketching literature
/// (arXiv 0909.4969) and the mode-parallel randomized Tucker recipe
/// (arXiv 2603.21379) promise, and what removes `symmetric_eigen` from
/// the top of the bench profile.
///
/// Determinism: the sketch is generated serially from `options.seed` and
/// every multiply/orthonormalization underneath runs on the pool with
/// pool-size-independent chunking, so the returned factor is
/// bit-identical at any `--threads` value (asserted by
/// tests/rsvd_test.cc). When the sketch cannot be smaller than the input
/// (rank + oversampling >= n) sketching cannot win, so the call falls
/// back to the exact LeadingEigenvectors path — bit-identical to the
/// deterministic solve — and counts `linalg.rsvd.exact_fallbacks`.
///
/// Observability: span "randomized_range_factor" (n / rank / sketch
/// annotations); counters `linalg.rsvd.sketches`,
/// `linalg.rsvd.power_iterations`, `linalg.rsvd.exact_fallbacks`.
///
/// Returns an n x min(rank, n) matrix with orthonormal columns.
/// InvalidArgument for empty / non-square input or rank 0.
Result<Matrix> RandomizedRangeFactor(const Matrix& sym, std::size_t rank,
                                     const RandomizedSvdOptions& options =
                                         {});

/// How GramFactor computes the leading factor of a Gram matrix.
enum class GramFactorMethod {
  /// Full Jacobi eigendecomposition of the Gram (LeftSingularVectorsFromGram)
  /// — the bit-exact oracle every randomized configuration is gated
  /// against.
  kDeterministic,
  /// Sketched subspace iteration (RandomizedRangeFactor).
  kRandomized,
};

/// \brief Factor-initialization policy shared by every Gram-based factor
/// solve in the pipeline (HOSVD modes, M2TD sub-factors, refinement
/// scoring models).
///
/// Default-constructed options reproduce the deterministic Gram + Jacobi
/// path exactly, so adding this struct to an API changes nothing for
/// existing callers.
struct GramFactorOptions {
  GramFactorMethod method = GramFactorMethod::kDeterministic;
  /// Sketch parameters; only read when `method == kRandomized`.
  RandomizedSvdOptions sketch;
  /// Symmetric eigensolver used by the deterministic path (the
  /// randomized path's small projected solve follows the process-wide
  /// default). Unset method = DefaultEigenMethod().
  EigenOptions eigen;

  /// Per-mode decorrelated copy: mixes `mode` into the sketch seed
  /// (SplitMix64-style) so independently sketched modes draw independent
  /// test matrices while staying a pure function of (seed, mode) — the
  /// embarrassingly mode-parallel sketching of arXiv 2603.21379 stays
  /// bit-deterministic regardless of which pool thread runs which mode.
  GramFactorOptions ForMode(std::size_t mode) const;
};

/// \brief Leading `rank` factor of a symmetric PSD Gram matrix under the
/// given initialization policy: the deterministic Gram + Jacobi solve, or
/// the sketched randomized range finder.
///
/// This is the single dispatch point the decomposition stack calls, so a
/// pipeline switches wholesale between the bit-exact oracle and the
/// sketched fast path by flipping one option.
Result<Matrix> GramFactor(const Matrix& gram, std::size_t rank,
                          const GramFactorOptions& options = {});

}  // namespace m2td::linalg

#endif  // M2TD_LINALG_RSVD_H_
