#include "linalg/simd_rot.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace m2td::linalg::simd::internal {

void RotScalar(std::size_t n, double c, double s, double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

// "avx2" without "fma", so no fused instruction is even available.
__attribute__((target("avx2"))) void RotAvx2(std::size_t n, double c,
                                             double s, double* x,
                                             double* y) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xv),
                                          _mm256_mul_pd(vs, yv)));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_mul_pd(vs, xv),
                                          _mm256_mul_pd(vc, yv)));
  }
  RotScalar(n - i, c, s, x + i, y + i);
}

#endif

#if defined(__aarch64__)

// Separate multiplies and add/subtract, never vfmaq/vfmsq. arm_neon.h
// implements these intrinsics as plain vector operators, so only
// -ffp-contract=off keeps the compiler from fusing them.
void RotNeon(std::size_t n, double c, double s, double* x, double* y) {
  const float64x2_t vc = vdupq_n_f64(c);
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t yv = vld1q_f64(y + i);
    vst1q_f64(x + i, vsubq_f64(vmulq_f64(vc, xv), vmulq_f64(vs, yv)));
    vst1q_f64(y + i, vaddq_f64(vmulq_f64(vs, xv), vmulq_f64(vc, yv)));
  }
  RotScalar(n - i, c, s, x + i, y + i);
}

#endif

}  // namespace m2td::linalg::simd::internal
