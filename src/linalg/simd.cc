#include "linalg/simd.h"

#include "linalg/simd_rot.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define M2TD_SIMD_HAVE_AVX2 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define M2TD_SIMD_HAVE_NEON 1
#endif

namespace m2td::linalg::simd {

namespace {

// ---------------------------------------------------------------------
// Scalar table. These loops must stay textually identical to the
// pre-SIMD inner loops (kept as test-local references in
// tests/simd_test.cc): the forced-scalar dispatch path is the
// bit-exactness oracle for the whole SIMD layer.
// ---------------------------------------------------------------------

void AxpyScalar(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

double DotScalar(std::size_t n, const double* x, const double* y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void Dot4Scalar(std::size_t n, const double* x, const double* y0,
                const double* y1, const double* y2, const double* y3,
                double* out) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double xv = x[k];
    s0 += xv * y0[k];
    s1 += xv * y1[k];
    s2 += xv * y2[k];
    s3 += xv * y3[k];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

constexpr Kernels kScalarKernels{util::SimdIsa::kScalar, AxpyScalar,
                                 DotScalar, Dot4Scalar,
                                 internal::RotScalar};

// ---------------------------------------------------------------------
// AVX2 + FMA table (x86-64). Function-level target attributes let the
// rest of the binary keep the baseline ISA; these bodies are only ever
// reached after __builtin_cpu_supports confirmed the host executes them.
// 8-wide = two 4-lane accumulators per iteration, hiding FMA latency.
// ---------------------------------------------------------------------

#if defined(M2TD_SIMD_HAVE_AVX2)

__attribute__((target("avx2,fma"))) void AxpyAvx2(std::size_t n, double a,
                                                  const double* x,
                                                  double* y) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d y0 = _mm256_loadu_pd(y + i);
    __m256d y1 = _mm256_loadu_pd(y + i + 4);
    y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), y0);
    y1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4), y1);
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
  }
  if (i + 4 <= n) {
    __m256d y0 = _mm256_loadu_pd(y + i);
    y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), y0);
    _mm256_storeu_pd(y + i, y0);
    i += 4;
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

__attribute__((target("avx2,fma"))) double DotAvx2(std::size_t n,
                                                   const double* x,
                                                   const double* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  __m256d acc = _mm256_add_pd(acc0, acc1);
  if (i + 4 <= n) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                          acc);
    i += 4;
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

__attribute__((target("avx2,fma"))) void Dot4Avx2(
    std::size_t n, const double* x, const double* y0, const double* y1,
    const double* y2, const double* y3, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y0 + i), a0);
    a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y1 + i), a1);
    a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y2 + i), a2);
    a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y3 + i), a3);
  }
  double lane[4];
  _mm256_storeu_pd(lane, a0);
  double s0 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  _mm256_storeu_pd(lane, a1);
  double s1 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  _mm256_storeu_pd(lane, a2);
  double s2 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  _mm256_storeu_pd(lane, a3);
  double s3 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    const double xv = x[i];
    s0 += xv * y0[i];
    s1 += xv * y1[i];
    s2 += xv * y2[i];
    s3 += xv * y3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

constexpr Kernels kAvx2Kernels{util::SimdIsa::kAvx2, AxpyAvx2, DotAvx2,
                               Dot4Avx2, internal::RotAvx2};

#endif  // M2TD_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------
// NEON table (AArch64). 2-lane doubles; unrolled to 8 elements with four
// independent accumulators to keep the FMA pipes busy.
// ---------------------------------------------------------------------

#if defined(M2TD_SIMD_HAVE_NEON)

void AxpyNeon(std::size_t n, double a, const double* x, double* y) {
  const float64x2_t va = vdupq_n_f64(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float64x2_t y0 = vld1q_f64(y + i);
    float64x2_t y1 = vld1q_f64(y + i + 2);
    y0 = vfmaq_f64(y0, va, vld1q_f64(x + i));
    y1 = vfmaq_f64(y1, va, vld1q_f64(x + i + 2));
    vst1q_f64(y + i, y0);
    vst1q_f64(y + i + 2, y1);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

double DotNeon(std::size_t n, const double* x, const double* y) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(x + i), vld1q_f64(y + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
  }
  const float64x2_t acc = vaddq_f64(acc0, acc1);
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void Dot4Neon(std::size_t n, const double* x, const double* y0,
              const double* y1, const double* y2, const double* y3,
              double* out) {
  float64x2_t a0 = vdupq_n_f64(0.0);
  float64x2_t a1 = vdupq_n_f64(0.0);
  float64x2_t a2 = vdupq_n_f64(0.0);
  float64x2_t a3 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    a0 = vfmaq_f64(a0, xv, vld1q_f64(y0 + i));
    a1 = vfmaq_f64(a1, xv, vld1q_f64(y1 + i));
    a2 = vfmaq_f64(a2, xv, vld1q_f64(y2 + i));
    a3 = vfmaq_f64(a3, xv, vld1q_f64(y3 + i));
  }
  double s0 = vgetq_lane_f64(a0, 0) + vgetq_lane_f64(a0, 1);
  double s1 = vgetq_lane_f64(a1, 0) + vgetq_lane_f64(a1, 1);
  double s2 = vgetq_lane_f64(a2, 0) + vgetq_lane_f64(a2, 1);
  double s3 = vgetq_lane_f64(a3, 0) + vgetq_lane_f64(a3, 1);
  for (; i < n; ++i) {
    const double xv = x[i];
    s0 += xv * y0[i];
    s1 += xv * y1[i];
    s2 += xv * y2[i];
    s3 += xv * y3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

constexpr Kernels kNeonKernels{util::SimdIsa::kNeon, AxpyNeon, DotNeon,
                               Dot4Neon, internal::RotNeon};

#endif  // M2TD_SIMD_HAVE_NEON

}  // namespace

const Kernels& KernelsForIsa(util::SimdIsa isa) {
  switch (isa) {
#if defined(M2TD_SIMD_HAVE_AVX2)
    case util::SimdIsa::kAvx2:
      return kAvx2Kernels;
#endif
#if defined(M2TD_SIMD_HAVE_NEON)
    case util::SimdIsa::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

const Kernels& ActiveKernels() {
  // Static refs: the counter registry lookup happens once, not per
  // kernel invocation.
  static obs::Counter& avx2_count =
      obs::GetCounter("linalg.simd.dispatch_avx2");
  static obs::Counter& neon_count =
      obs::GetCounter("linalg.simd.dispatch_neon");
  static obs::Counter& scalar_count =
      obs::GetCounter("linalg.simd.dispatch_scalar");
  const Kernels& kernels = KernelsForIsa(util::ResolvedSimdIsa());
  switch (kernels.isa) {
    case util::SimdIsa::kAvx2:
      avx2_count.Increment();
      break;
    case util::SimdIsa::kNeon:
      neon_count.Increment();
      break;
    case util::SimdIsa::kScalar:
      scalar_count.Increment();
      break;
  }
  return kernels;
}

}  // namespace m2td::linalg::simd
