#ifndef M2TD_LINALG_SIMD_H_
#define M2TD_LINALG_SIMD_H_

#include <cstddef>

#include "util/cpu_features.h"

namespace m2td::linalg::simd {

/// Function table of the inner kernels every hot loop in the library
/// reduces to, specialized per ISA level. The scalar table replicates
/// the pre-SIMD inner loops instruction-for-instruction, so a
/// forced-scalar dispatch (`M2TD_FORCE_ISA=scalar`) is bit-identical to
/// builds predating the SIMD layer. The vector `axpy`/`dot`/`dot4` fuse
/// multiply-adds and sum lanes pairwise — different fp
/// rounding/association, same O(eps) accuracy. `rot` is the table's one
/// FMA-free entry: every level rounds it like the scalar loop, because
/// the eigensolvers that call it promise output that does not depend on
/// the ISA. Its bodies are compiled with -ffp-contract=off
/// (linalg/simd_rot.cc); that every level gives the same bits is tested
/// on x86-64 (scalar and AVX2) and not yet on AArch64 (NEON). Every
/// kernel is a pure function of its arguments
/// (no thread-count dependence), so any dispatch level is bit-identical
/// across `--threads` values.
struct Kernels {
  /// The ISA these kernels are compiled for.
  util::SimdIsa isa;
  /// y[i] += a * x[i] for i in [0, n). The workhorse of Multiply /
  /// MultiplyTransA row updates, CSF fiber scatter, and Gram row
  /// accumulation.
  void (*axpy)(std::size_t n, double a, const double* x, double* y);
  /// Returns sum_i x[i] * y[i] (single accumulator in the scalar table).
  double (*dot)(std::size_t n, const double* x, const double* y);
  /// Four simultaneous dot products sharing one streaming pass over `x`:
  /// out[q] = sum_i x[i] * yq[i]. Matches MultiplyTransB's
  /// register-blocked quad-dot.
  void (*dot4)(std::size_t n, const double* x, const double* y0,
               const double* y1, const double* y2, const double* y3,
               double* out);
  /// Plane rotation of two rows: for i in [0, n), with xi and yi read
  /// before either is written, x[i] = c * xi - s * yi and
  /// y[i] = s * xi + c * yi. Each product is rounded on its own (no
  /// fused multiply-add at any level), so the tables agree bit for bit.
  /// `x` and `y` must not overlap. The Jacobi and QL eigensolvers'
  /// basis and row updates.
  void (*rot)(std::size_t n, double c, double s, double* x, double* y);
};

/// The kernel table for util::ResolvedSimdIsa() — the only way the hot
/// kernels run. Each call increments the matching
/// `linalg.simd.dispatch_{avx2,neon,scalar}` counter, so call it once per
/// kernel-level invocation (one Multiply, one ModeGram, one
/// SparseModeProduct, one eigensolve), not per inner loop.
const Kernels& ActiveKernels();

/// Kernel table for an explicit ISA level, without touching dispatch
/// counters. Requesting a level the binary lacks returns the scalar
/// table. For oracle tests that pin both sides of a comparison.
const Kernels& KernelsForIsa(util::SimdIsa isa);

}  // namespace m2td::linalg::simd

#endif  // M2TD_LINALG_SIMD_H_
