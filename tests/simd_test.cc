// Runtime SIMD dispatch: the scalar kernel table must be bit-identical
// to the pre-SIMD inline loops (so a forced-scalar run reproduces them
// exactly), the vector tables must agree with scalar to rounding (rot:
// bit for bit at every level), and the M2TD_FORCE_ISA override must
// only ever downgrade. Kernel-level checks cover
// Multiply/MultiplyTransA/MultiplyTransB, ModeGram, and
// SparseModeProduct across thread counts.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dispatch_guard.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "oracles/mode_gram_coo.h"
#include "oracles/sparse_mode_product_coo.h"
#include "oracles/symmetric_eigen_reference.h"
#include "parallel/thread_pool.h"
#include "tensor/dense_tensor.h"
#include "tensor/matricize.h"
#include "tensor/sparse_tensor.h"
#include "tensor/ttm.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace m2td::linalg {
namespace {

using simd::Kernels;
using simd::KernelsForIsa;
using tensor::SparseTensor;
using util::SimdIsa;

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

SparseTensor RandomSparse(std::uint64_t dim, std::size_t modes,
                          std::uint64_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(std::vector<std::uint64_t>(modes, dim));
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(dim));
    }
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

// Dense fibers along mode 0: long contiguous CSF leaf runs, the regime
// where the gram/scatter kernels take their vectorized branches.
SparseTensor FiberDenseSparse(std::uint64_t dim, std::size_t modes,
                              std::uint64_t fibers, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(std::vector<std::uint64_t>(modes, dim));
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t f = 0; f < fibers; ++f) {
    for (std::size_t m = 1; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(dim));
    }
    for (std::uint64_t i = 0; i < dim; ++i) {
      idx[0] = static_cast<std::uint32_t>(i);
      x.AppendEntry(idx, rng.Gaussian());
    }
  }
  x.SortAndCoalesce();
  return x;
}

double MaxAbsDiffTensors(const tensor::DenseTensor& a,
                         const tensor::DenseTensor& b) {
  EXPECT_EQ(a.NumElements(), b.NumElements());
  double max_diff = 0.0;
  for (std::uint64_t i = 0; i < a.NumElements(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.flat(i) - b.flat(i)));
  }
  return max_diff;
}

// ------------------------------------------------- raw kernel oracles

TEST(SimdKernelTest, ScalarTableMatchesInlineLoopsExactly) {
  const Kernels& scalar = KernelsForIsa(SimdIsa::kScalar);
  Rng rng(5);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{7}, std::size_t{64}, std::size_t{129}}) {
    std::vector<double> x(n), y0(n), y1(n), y2(n), y3(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y0[i] = rng.Gaussian();
      y1[i] = rng.Gaussian();
      y2[i] = rng.Gaussian();
      y3[i] = rng.Gaussian();
    }
    const double a = rng.Gaussian();

    std::vector<double> expected = y0;
    for (std::size_t i = 0; i < n; ++i) expected[i] += a * x[i];
    std::vector<double> actual = y0;
    scalar.axpy(n, a, x.data(), actual.data());
    EXPECT_EQ(actual, expected) << "axpy n=" << n;

    double dot_expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) dot_expected += x[i] * y0[i];
    EXPECT_EQ(scalar.dot(n, x.data(), y0.data()), dot_expected)
        << "dot n=" << n;

    double quad_expected[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      quad_expected[0] += x[i] * y0[i];
      quad_expected[1] += x[i] * y1[i];
      quad_expected[2] += x[i] * y2[i];
      quad_expected[3] += x[i] * y3[i];
    }
    double quad[4];
    scalar.dot4(n, x.data(), y0.data(), y1.data(), y2.data(), y3.data(),
                quad);
    for (int q = 0; q < 4; ++q) {
      EXPECT_EQ(quad[q], quad_expected[q]) << "dot4[" << q << "] n=" << n;
    }
  }
}

TEST(SimdKernelTest, VectorTablesMatchScalarToRounding) {
  const Kernels& scalar = KernelsForIsa(SimdIsa::kScalar);
  const Kernels& vec = KernelsForIsa(util::DetectedSimdIsa());
  if (vec.isa == SimdIsa::kScalar) {
    GTEST_SKIP() << "no vector ISA available in this binary/host";
  }
  Rng rng(9);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{5}, std::size_t{8}, std::size_t{13},
                        std::size_t{16}, std::size_t{100},
                        std::size_t{257}}) {
    std::vector<double> x(n), y0(n), y1(n), y2(n), y3(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.Gaussian();
      y0[i] = rng.Gaussian();
      y1[i] = rng.Gaussian();
      y2[i] = rng.Gaussian();
      y3[i] = rng.Gaussian();
    }
    const double a = rng.Gaussian();

    std::vector<double> ys = y0, yv = y0;
    scalar.axpy(n, a, x.data(), ys.data());
    vec.axpy(n, a, x.data(), yv.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ys[i], yv[i], 1e-12) << "axpy n=" << n << " i=" << i;
    }

    EXPECT_NEAR(scalar.dot(n, x.data(), y0.data()),
                vec.dot(n, x.data(), y0.data()), 1e-10 * n)
        << "dot n=" << n;

    double qs[4], qv[4];
    scalar.dot4(n, x.data(), y0.data(), y1.data(), y2.data(), y3.data(),
                qs);
    vec.dot4(n, x.data(), y0.data(), y1.data(), y2.data(), y3.data(), qv);
    for (int q = 0; q < 4; ++q) {
      EXPECT_NEAR(qs[q], qv[q], 1e-10 * n) << "dot4[" << q << "] n=" << n;
    }
  }
}

TEST(SimdKernelTest, UnavailableIsaFallsBackToScalarTable) {
#if defined(__x86_64__)
  const Kernels& table = KernelsForIsa(SimdIsa::kNeon);
#else
  const Kernels& table = KernelsForIsa(SimdIsa::kAvx2);
#endif
  EXPECT_EQ(table.isa, SimdIsa::kScalar);
}

// rot is the one kernel with no rounding latitude: every table must
// reproduce the plain loop (RotReference) bit for bit, including the vector bodies'
// tails and unaligned rows, and write nothing outside [0, n).
TEST(SimdKernelTest, RotIsBitIdenticalAtEveryLevel) {
  Rng rng(21);
  constexpr std::size_t kPad = 4;
  for (std::size_t n = 0; n < 20; ++n) {
    for (const auto& [x_off, y_off] :
         {std::pair<std::size_t, std::size_t>{0, 0}, {1, 3}, {3, 1}}) {
      std::vector<double> x0(n + kPad), y0(n + kPad);
      for (double& v : x0) v = rng.Gaussian();
      for (double& v : y0) v = rng.Gaussian();
      const double t = rng.Gaussian();
      const double c = 1.0 / std::sqrt(1.0 + t * t);
      const double s = t * c;

      std::vector<double> x_want = x0, y_want = y0;
      RotReference(n, c, s, x_want.data() + x_off, y_want.data() + y_off);
      for (SimdIsa isa :
           {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
        const Kernels& table = KernelsForIsa(isa);
        std::vector<double> x = x0, y = y0;
        table.rot(n, c, s, x.data() + x_off, y.data() + y_off);
        EXPECT_EQ(std::memcmp(x.data(), x_want.data(),
                              x.size() * sizeof(double)),
                  0)
            << util::SimdIsaName(table.isa) << " x, n=" << n
            << " offset=" << x_off;
        EXPECT_EQ(std::memcmp(y.data(), y_want.data(),
                              y.size() * sizeof(double)),
                  0)
            << util::SimdIsaName(table.isa) << " y, n=" << n
            << " offset=" << y_off;
      }
    }
  }
}

// ------------------------------------------- ISA resolution + override

TEST(SimdDispatchTest, ForceIsaOnlyEverDowngrades) {
  DispatchGuard guard;
  const SimdIsa detected = util::DetectedSimdIsa();

  ForceIsa("scalar");
  EXPECT_EQ(util::ResolvedSimdIsa(), SimdIsa::kScalar);

  // Forcing the detected level is a no-op; forcing a level the host or
  // binary lacks warns and falls back to detected (never upgrades).
  for (const char* name : {"scalar", "avx2", "neon"}) {
    ForceIsa(name);
    SimdIsa forced = SimdIsa::kScalar;
    ASSERT_TRUE(util::ParseSimdIsa(name, &forced));
    const SimdIsa resolved = util::ResolvedSimdIsa();
    if (forced == SimdIsa::kScalar || forced == detected) {
      EXPECT_EQ(resolved, forced) << name;
    } else {
      EXPECT_EQ(resolved, detected) << name;
    }
  }

  // Garbage values warn and keep the detected level.
  ForceIsa("quantum");
  EXPECT_EQ(util::ResolvedSimdIsa(), detected);

  ::unsetenv("M2TD_FORCE_ISA");
  util::RefreshSimdIsaForTesting();
  EXPECT_EQ(util::ResolvedSimdIsa(), detected);
}

TEST(SimdDispatchTest, IsaNamesRoundTrip) {
  for (SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    SimdIsa parsed = SimdIsa::kScalar;
    ASSERT_TRUE(util::ParseSimdIsa(util::SimdIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  SimdIsa parsed = SimdIsa::kNeon;
  EXPECT_FALSE(util::ParseSimdIsa("sse2", &parsed));
  EXPECT_EQ(parsed, SimdIsa::kNeon);  // untouched on failure
}

TEST(SimdDispatchTest, DispatchCountersCountKernelInvocations) {
  DispatchGuard guard;
  const bool metrics_was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  ForceIsa("scalar");
  obs::Counter& scalar_count =
      obs::GetCounter("linalg.simd.dispatch_scalar");
  const std::uint64_t before = scalar_count.value();
  const Matrix a = RandomMatrix(8, 8, 3);
  (void)Multiply(a, a);
  (void)MultiplyTransA(a, a);
  EXPECT_EQ(scalar_count.value(), before + 2);
  obs::SetMetricsEnabled(metrics_was_enabled);
}

// ---------------------------- pre-SIMD reference loops (test-local)

// The dense multiply inner loops as they were before the kernels went
// through the dispatch table. Cache blocking and row parallelism only
// regroup the iteration space, so these plain loops produce the same
// per-element addition sequence (ascending k, same zero skip).
Matrix ReferenceMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.RowPtr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMultiplyTransA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    double* crow = c.RowPtr(i);
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMultiplyTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
      c(i, j) = sum;
    }
  }
  return c;
}

// -------------------------------- kernel-level identity across dispatch

// Every dispatched kernel, evaluated with forced-scalar dispatch (must be
// bit-identical to the pre-SIMD reference: the literal loops above for
// the dense multiplies, the COO oracles for the sparse kernels) and with
// the resolved vector ISA (must agree to rounding), across thread counts
// (all paths are chunk-order invariant, so thread count must never change
// a bit).
TEST(SimdKernelTest, KernelLevelDispatchIdentity) {
  DispatchGuard guard;
  const Matrix a = RandomMatrix(37, 53, 11);
  const Matrix b = RandomMatrix(53, 41, 13);
  const Matrix bt = RandomMatrix(41, 53, 15);
  const Matrix at = RandomMatrix(53, 37, 17);
  const SparseTensor sparse = RandomSparse(16, 3, 5000, 19);
  const SparseTensor fiber = FiberDenseSparse(24, 3, 60, 21);
  const Matrix u = RandomMatrix(24, 7, 23);

  struct Snapshot {
    Matrix mul, mul_ta, mul_tb, gram_sparse, gram_fiber;
    tensor::DenseTensor ttm;
  };
  auto snapshot = [&]() {
    auto gram_sparse = tensor::ModeGram(sparse, 0);
    auto gram_fiber = tensor::ModeGram(fiber, 0);
    auto ttm = tensor::SparseModeProduct(fiber, u, 0, /*transpose_u=*/true);
    EXPECT_TRUE(gram_sparse.ok() && gram_fiber.ok() && ttm.ok());
    return Snapshot{Multiply(a, b), MultiplyTransA(at, b),
                    MultiplyTransB(a, bt), *std::move(gram_sparse),
                    *std::move(gram_fiber), *std::move(ttm)};
  };

  auto gram_sparse = tensor::ModeGramCoo(sparse, 0);
  auto gram_fiber = tensor::ModeGramCoo(fiber, 0);
  auto ttm = tensor::SparseModeProductCoo(fiber, u, 0, /*transpose_u=*/true);
  ASSERT_TRUE(gram_sparse.ok() && gram_fiber.ok() && ttm.ok());
  const Snapshot reference{ReferenceMultiply(a, b),
                           ReferenceMultiplyTransA(at, b),
                           ReferenceMultiplyTransB(a, bt),
                           *std::move(gram_sparse), *std::move(gram_fiber),
                           *std::move(ttm)};

  std::optional<Snapshot> vec1;  // resolved-ISA result at threads == 1
  for (int threads : {1, 2, 4}) {
    parallel::SetGlobalThreads(threads);

    // Forced-scalar dispatch routes through the kernel table's scalar
    // entries: bit-identical to the pre-SIMD loops by construction.
    ForceIsa("scalar");
    Snapshot forced = snapshot();
    EXPECT_EQ(Matrix::MaxAbsDiff(forced.mul, reference.mul), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(forced.mul_ta, reference.mul_ta), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(forced.mul_tb, reference.mul_tb), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(forced.gram_sparse, reference.gram_sparse),
              0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(forced.gram_fiber, reference.gram_fiber),
              0.0);
    EXPECT_EQ(MaxAbsDiffTensors(forced.ttm, reference.ttm), 0.0);

    // The resolved vector ISA (when present) agrees to rounding and is
    // itself deterministic across thread counts (bit-compare vs
    // threads=1).
    guard.Restore();
    if (util::ResolvedSimdIsa() == SimdIsa::kScalar) continue;
    Snapshot vec = snapshot();
    if (!vec1.has_value()) vec1 = vec;
    EXPECT_EQ(Matrix::MaxAbsDiff(vec.mul, vec1->mul), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(vec.mul_ta, vec1->mul_ta), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(vec.mul_tb, vec1->mul_tb), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(vec.gram_sparse, vec1->gram_sparse), 0.0);
    EXPECT_EQ(Matrix::MaxAbsDiff(vec.gram_fiber, vec1->gram_fiber), 0.0);
    EXPECT_EQ(MaxAbsDiffTensors(vec.ttm, vec1->ttm), 0.0);
    EXPECT_LT(Matrix::MaxAbsDiff(vec.mul, reference.mul), 1e-10);
    EXPECT_LT(Matrix::MaxAbsDiff(vec.mul_ta, reference.mul_ta), 1e-10);
    EXPECT_LT(Matrix::MaxAbsDiff(vec.mul_tb, reference.mul_tb), 1e-10);
    EXPECT_LT(Matrix::MaxAbsDiff(vec.gram_sparse, reference.gram_sparse),
              1e-9);
    EXPECT_LT(Matrix::MaxAbsDiff(vec.gram_fiber, reference.gram_fiber),
              1e-9);
    EXPECT_LT(MaxAbsDiffTensors(vec.ttm, reference.ttm), 1e-10);
  }
}

}  // namespace
}  // namespace m2td::linalg
