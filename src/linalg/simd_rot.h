#ifndef M2TD_LINALG_SIMD_ROT_H_
#define M2TD_LINALG_SIMD_ROT_H_

#include <cstddef>

// The bodies of simd::Kernels::rot, one per ISA level. They sit in a
// translation unit of their own because src/linalg/CMakeLists.txt
// compiles it with -ffp-contract=off: where the baseline ISA has FMA
// (AArch64) the compiler is otherwise free to fuse a multiply into the
// add or subtract, and need not fuse every body the same way. The other
// kernels in simd.cc keep the default, so their bits do not change.

namespace m2td::linalg::simd::internal {

void RotScalar(std::size_t n, double c, double s, double* x, double* y);

#if defined(__x86_64__) || defined(_M_X64)
void RotAvx2(std::size_t n, double c, double s, double* x, double* y);
#endif

#if defined(__aarch64__)
void RotNeon(std::size_t n, double c, double s, double* x, double* y);
#endif

}  // namespace m2td::linalg::simd::internal

#endif  // M2TD_LINALG_SIMD_ROT_H_
