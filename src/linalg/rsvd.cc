#include "linalg/rsvd.h"

#include <algorithm>

#include "linalg/eigen.h"
#include "linalg/qr.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace m2td::linalg {

Result<Matrix> RandomizedRangeFactor(const Matrix& sym, std::size_t rank,
                                     const RandomizedSvdOptions& options) {
  const std::size_t n = sym.rows();
  if (n == 0) {
    return Status::InvalidArgument("RandomizedRangeFactor on empty matrix");
  }
  if (sym.cols() != n) {
    return Status::InvalidArgument("RandomizedRangeFactor needs a square matrix");
  }
  if (rank == 0) return Status::InvalidArgument("rank must be positive");
  const std::size_t k = std::min(rank, n);
  const std::size_t sketch = std::min(n, k + options.oversampling);

  obs::ObsSpan span("randomized_range_factor");
  span.Annotate("n", static_cast<std::uint64_t>(n));
  span.Annotate("rank", static_cast<std::uint64_t>(k));
  span.Annotate("sketch", static_cast<std::uint64_t>(sketch));

  if (sketch >= n) {
    // The sketched subproblem would be as large as the original: sketching
    // cannot win, and the exact solve doubles as a bit-reproducible floor
    // for tiny modes.
    static obs::Counter& fallbacks =
        obs::GetCounter("linalg.rsvd.exact_fallbacks");
    fallbacks.Increment();
    span.Annotate("exact_fallback", std::uint64_t{1});
    return LeadingEigenvectors(sym, k);
  }

  static obs::Counter& sketches = obs::GetCounter("linalg.rsvd.sketches");
  sketches.Increment();

  // Serial Gaussian sketch: a pure function of the seed, so the draw is
  // identical at any pool size (the multiplies below are pool-parallel but
  // bit-deterministic by ascending-chunk merging).
  Rng rng(options.seed);
  Matrix omega(n, sketch);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < sketch; ++j) omega(i, j) = rng.Gaussian();
  }
  Matrix y = Multiply(sym, omega);

  static obs::Counter& power_iters =
      obs::GetCounter("linalg.rsvd.power_iterations");
  for (int it = 0; it < options.power_iterations; ++it) {
    power_iters.Increment();
    M2TD_ASSIGN_OR_RETURN(y, OrthonormalizeColumns(y));
    y = Multiply(sym, y);  // symmetric input: one multiply per iteration
  }
  M2TD_ASSIGN_OR_RETURN(Matrix q, OrthonormalizeColumns(y));

  // Project to the small subspace and solve there exactly with the same
  // Jacobi the deterministic path uses: B = Q^T A Q (sketch x sketch).
  Matrix aq = Multiply(sym, q);
  Matrix b = MultiplyTransA(q, aq);
  // Symmetrize away the fp asymmetry of the two-step product so Jacobi's
  // symmetry acceptance check cannot reject near the tolerance.
  for (std::size_t i = 0; i < sketch; ++i) {
    for (std::size_t j = i + 1; j < sketch; ++j) {
      const double v = 0.5 * (b(i, j) + b(j, i));
      b(i, j) = v;
      b(j, i) = v;
    }
  }
  M2TD_ASSIGN_OR_RETURN(SymmetricEigenResult small, SymmetricEigen(b));

  // Lift: U = Q V_k, orthonormal because both factors are.
  return Multiply(q, small.eigenvectors.LeadingColumns(k));
}

GramFactorOptions GramFactorOptions::ForMode(std::size_t mode) const {
  GramFactorOptions out = *this;
  // SplitMix64 finalizer over (seed, mode): decorrelated per-mode streams
  // that depend only on the configured seed and the mode index.
  std::uint64_t z = sketch.seed + 0x9e3779b97f4a7c15ULL * (mode + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  out.sketch.seed = z ^ (z >> 31);
  return out;
}

Result<Matrix> GramFactor(const Matrix& gram, std::size_t rank,
                          const GramFactorOptions& options) {
  switch (options.method) {
    case GramFactorMethod::kRandomized:
      return RandomizedRangeFactor(gram, rank, options.sketch);
    case GramFactorMethod::kDeterministic:
      break;
  }
  return LeftSingularVectorsFromGram(gram, rank, options.eigen);
}

}  // namespace m2td::linalg
