// CSF index and TTM-chain-cache coverage: with the kernels pinned to the
// scalar table (M2TD_FORCE_ISA=scalar) the CSF kernels must be
// *bit-identical* to their COO reference implementations (not merely
// close — the repo's determinism contract is exact), and at the resolved
// ISA they must agree with them to rounding. The index structure must
// hold its documented invariants, concurrent lazy builds must be
// race-free (run under TSAN via the verify recipe), and HOOI's chain
// memoization must be a pure speed knob.

#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dispatch_guard.h"
#include "obs/metrics.h"
#include "oracles/mode_gram_coo.h"
#include "oracles/sparse_mode_product_coo.h"
#include "parallel/thread_pool.h"
#include "tensor/csf.h"
#include "tensor/dense_tensor.h"
#include "tensor/hooi.h"
#include "tensor/matricize.h"
#include "tensor/sparse_tensor.h"
#include "tensor/ttm.h"
#include "util/random.h"

namespace m2td::tensor {
namespace {

SparseTensor RandomSparse(const std::vector<std::uint64_t>& shape,
                          double density, Rng* rng) {
  SparseTensor x(shape);
  std::uint64_t logical = 1;
  for (std::uint64_t d : shape) logical *= d;
  const std::uint64_t nnz = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(density * static_cast<double>(logical)));
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      idx[m] = static_cast<std::uint32_t>(rng->UniformInt(shape[m]));
    }
    x.AppendEntry(idx, rng->Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  linalg::Matrix u(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) u(i, j) = rng->Gaussian();
  }
  return u;
}

void ExpectBitIdentical(const DenseTensor& a, const DenseTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::uint64_t i = 0; i < a.NumElements(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << "flat index " << i;
  }
}

void ExpectBitIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

void ExpectNear(const DenseTensor& a, const DenseTensor& b, double tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::uint64_t i = 0; i < a.NumElements(); ++i) {
    ASSERT_NEAR(a.flat(i), b.flat(i), tol) << "flat index " << i;
  }
}

void ExpectNear(const linalg::Matrix& a, const linalg::Matrix& b,
                double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), tol) << "(" << i << "," << j << ")";
    }
  }
}

// Sweep: (shape id, density) — same grid as tensor_property_test.
using CsfParam = std::tuple<int, double>;

std::vector<std::uint64_t> ShapeOf(int shape_id) {
  switch (shape_id) {
    case 0:
      return {4, 5};
    case 1:
      return {3, 4, 5};
    case 2:
      return {4, 4, 4, 4};
    default:
      return {2, 3, 2, 3, 2};
  }
}

class CsfEquivalence : public ::testing::TestWithParam<CsfParam> {
 protected:
  SparseTensor MakeInput() {
    Rng rng(700 + std::get<0>(GetParam()) * 10 +
            static_cast<int>(std::get<1>(GetParam()) * 100));
    return RandomSparse(ShapeOf(std::get<0>(GetParam())),
                        std::get<1>(GetParam()), &rng);
  }
};

TEST_P(CsfEquivalence, SparseModeProductMatchesCooBitForBit) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x = MakeInput();
  Rng rng(42);
  for (std::size_t mode = 0; mode < x.num_modes(); ++mode) {
    for (bool transpose : {false, true}) {
      const std::size_t n = static_cast<std::size_t>(x.dim(mode));
      const linalg::Matrix u = transpose ? RandomMatrix(n, 3, &rng)
                                         : RandomMatrix(3, n, &rng);
      auto csf = SparseModeProduct(x, u, mode, transpose);
      auto coo = SparseModeProductCoo(x, u, mode, transpose);
      ASSERT_TRUE(csf.ok() && coo.ok());
      ExpectBitIdentical(*csf, *coo);
    }
  }
}

TEST_P(CsfEquivalence, ModeGramMatchesCooBitForBit) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x = MakeInput();
  for (std::size_t mode = 0; mode < x.num_modes(); ++mode) {
    auto csf = ModeGram(x, mode);
    auto coo = ModeGramCoo(x, mode);
    ASSERT_TRUE(csf.ok() && coo.ok());
    ExpectBitIdentical(*csf, *coo);
  }
}

// The production dispatch (the resolved ISA, which fuses multiply-adds on
// AVX2/NEON hosts) agrees with the scalar COO oracles to rounding.
TEST_P(CsfEquivalence, ResolvedIsaMatchesCooToRounding) {
  SparseTensor x = MakeInput();
  Rng rng(42);
  for (std::size_t mode = 0; mode < x.num_modes(); ++mode) {
    auto gram = ModeGram(x, mode);
    auto gram_coo = ModeGramCoo(x, mode);
    ASSERT_TRUE(gram.ok() && gram_coo.ok());
    ExpectNear(*gram, *gram_coo, 1e-10);
    for (bool transpose : {false, true}) {
      const std::size_t n = static_cast<std::size_t>(x.dim(mode));
      const linalg::Matrix u = transpose ? RandomMatrix(n, 3, &rng)
                                         : RandomMatrix(3, n, &rng);
      auto csf = SparseModeProduct(x, u, mode, transpose);
      auto coo = SparseModeProductCoo(x, u, mode, transpose);
      ASSERT_TRUE(csf.ok() && coo.ok());
      ExpectNear(*csf, *coo, 1e-10);
    }
  }
}

TEST_P(CsfEquivalence, IndexStructureInvariantsHold) {
  SparseTensor x = MakeInput();
  for (std::size_t mode = 0; mode < x.num_modes(); ++mode) {
    const CsfModeIndex& csf = x.Csf(mode);
    ASSERT_EQ(csf.mode(), mode);
    ASSERT_EQ(csf.num_entries(), x.NumNonZeros());
    ASSERT_EQ(csf.fiber_offsets().size(), csf.num_fibers() + 1);
    ASSERT_EQ(csf.fiber_offsets().front(), 0u);
    ASSERT_EQ(csf.fiber_offsets().back(), x.NumNonZeros());
    for (std::uint64_t f = 0; f < csf.num_fibers(); ++f) {
      // Non-empty fibers, strictly ascending columns.
      ASSERT_LT(csf.fiber_offsets()[f], csf.fiber_offsets()[f + 1]);
      if (f > 0) {
        ASSERT_LT(csf.fiber_columns()[f - 1], csf.fiber_columns()[f]);
      }
      // Leaf coordinates strictly ascend within a fiber (coalescing makes
      // (column, leaf) pairs unique).
      for (std::uint64_t e = csf.fiber_offsets()[f] + 1;
           e < csf.fiber_offsets()[f + 1]; ++e) {
        ASSERT_LT(csf.leaf_coords()[e - 1], csf.leaf_coords()[e]);
      }
    }
    // DecodeColumn round-trips every fiber column.
    std::vector<std::uint32_t> coords(csf.other_dims().size());
    for (std::uint64_t f = 0; f < csf.num_fibers(); ++f) {
      csf.DecodeColumn(csf.fiber_columns()[f], coords.data());
      std::uint64_t column = 0;
      for (std::size_t i = 0; i < coords.size(); ++i) {
        ASSERT_LT(coords[i], csf.other_dims()[i]);
        column = column * csf.other_dims()[i] + coords[i];
      }
      ASSERT_EQ(column, csf.fiber_columns()[f]);
    }
  }
}

TEST_P(CsfEquivalence, KernelsBitIdenticalAcrossThreadCounts) {
  SparseTensor x = MakeInput();
  Rng rng(7);
  const std::size_t n0 = static_cast<std::size_t>(x.dim(0));
  const linalg::Matrix u = RandomMatrix(n0, 3, &rng);

  parallel::SetGlobalThreads(1);
  auto ttm1 = SparseModeProduct(x, u, 0, /*transpose_u=*/true);
  auto gram1 = ModeGram(x, x.num_modes() - 1);
  parallel::SetGlobalThreads(4);
  auto ttm4 = SparseModeProduct(x, u, 0, /*transpose_u=*/true);
  auto gram4 = ModeGram(x, x.num_modes() - 1);
  parallel::SetGlobalThreads(parallel::HardwareThreads());

  ASSERT_TRUE(ttm1.ok() && ttm4.ok() && gram1.ok() && gram4.ok());
  ExpectBitIdentical(*ttm1, *ttm4);
  ExpectBitIdentical(*gram1, *gram4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsfEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.05, 0.3, 0.9)),
    [](const ::testing::TestParamInfo<CsfParam>& info) {
      return "shape" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(CsfEdgeCases, EmptyTensor) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x(std::vector<std::uint64_t>{3, 4, 5});
  x.SortAndCoalesce();
  for (std::size_t mode = 0; mode < 3; ++mode) {
    const CsfModeIndex& csf = x.Csf(mode);
    EXPECT_EQ(csf.num_fibers(), 0u);
    EXPECT_EQ(csf.num_entries(), 0u);
    ASSERT_EQ(csf.fiber_offsets().size(), 1u);
    EXPECT_EQ(csf.fiber_offsets()[0], 0u);

    auto gram = ModeGram(x, mode);
    auto gram_coo = ModeGramCoo(x, mode);
    ASSERT_TRUE(gram.ok() && gram_coo.ok());
    ExpectBitIdentical(*gram, *gram_coo);

    Rng rng(1);
    const linalg::Matrix u =
        RandomMatrix(static_cast<std::size_t>(x.dim(mode)), 2, &rng);
    auto y = SparseModeProduct(x, u, mode, /*transpose_u=*/true);
    auto y_coo = SparseModeProductCoo(x, u, mode, /*transpose_u=*/true);
    ASSERT_TRUE(y.ok() && y_coo.ok());
    ExpectBitIdentical(*y, *y_coo);
  }
}

TEST(CsfEdgeCases, SingletonTensor) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x(std::vector<std::uint64_t>{2, 3, 4});
  x.AppendEntry({1, 2, 3}, 2.5);
  x.SortAndCoalesce();
  for (std::size_t mode = 0; mode < 3; ++mode) {
    const CsfModeIndex& csf = x.Csf(mode);
    EXPECT_EQ(csf.num_fibers(), 1u);
    EXPECT_EQ(csf.num_entries(), 1u);
    auto gram = ModeGram(x, mode);
    auto gram_coo = ModeGramCoo(x, mode);
    ASSERT_TRUE(gram.ok() && gram_coo.ok());
    ExpectBitIdentical(*gram, *gram_coo);
  }
}

TEST(CsfEdgeCases, DuplicateEntriesCoalesceBeforeIndexing) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x(std::vector<std::uint64_t>{3, 3});
  x.AppendEntry({1, 2}, 1.0);
  x.AppendEntry({1, 2}, 2.0);
  x.AppendEntry({0, 1}, -1.5);
  x.AppendEntry({1, 2}, 0.5);
  x.SortAndCoalesce();
  ASSERT_EQ(x.NumNonZeros(), 2u);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    auto gram = ModeGram(x, mode);
    auto gram_coo = ModeGramCoo(x, mode);
    ASSERT_TRUE(gram.ok() && gram_coo.ok());
    ExpectBitIdentical(*gram, *gram_coo);
  }
  // The coalesced (1,2) entry must appear once with the summed value.
  const CsfModeIndex& csf = x.Csf(0);
  EXPECT_EQ(csf.num_entries(), 2u);
}

TEST(CsfEdgeCases, MutationDetachesIndex) {
  DispatchGuard guard;
  ForceIsa("scalar");
  SparseTensor x(std::vector<std::uint64_t>{3, 3});
  x.AppendEntry({0, 0}, 1.0);
  x.AppendEntry({2, 2}, 2.0);
  x.SortAndCoalesce();
  auto before = ModeGram(x, 0);
  ASSERT_TRUE(before.ok());
  // MutableValue must invalidate the cached index: the next Gram has to
  // see the new value, not the stale one.
  x.MutableValue(0) = 5.0;
  auto after = ModeGram(x, 0);
  auto after_coo = ModeGramCoo(x, 0);
  ASSERT_TRUE(after.ok() && after_coo.ok());
  ExpectBitIdentical(*after, *after_coo);
  EXPECT_NE((*before)(0, 0), (*after)(0, 0));
}

// The CSF kernels have no COO fallback: an unsorted tensor is
// InvalidArgument, and its coalesced copy runs.
TEST(CsfEdgeCases, UnsortedTensorIsInvalidArgument) {
  SparseTensor x(std::vector<std::uint64_t>{3, 4});
  x.AppendEntry({2, 1}, 1.0);
  x.AppendEntry({0, 3}, 2.0);
  ASSERT_FALSE(x.IsSorted());
  const linalg::Matrix u(3, 2);
  auto product = SparseModeProduct(x, u, 0, /*transpose_u=*/true);
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kInvalidArgument);
  auto gram = ModeGram(x, 0);
  ASSERT_FALSE(gram.ok());
  EXPECT_EQ(gram.status().code(), StatusCode::kInvalidArgument);
  x.SortAndCoalesce();
  EXPECT_TRUE(SparseModeProduct(x, u, 0, /*transpose_u=*/true).ok());
}

// Matricization columns past 2^64 would wrap: on {2, 2^32, 2^32, 2} the
// mode-0 columns of (0, 2^31, 0, 0) and (1, 0, 0, 0) both wrap to 0,
// which would merge two fibers into the Gram [[9 15] [15 25]] instead of
// diag(9, 25). Such modes are rejected; at exactly 2^64 columns the
// result is exact.
TEST(CsfEdgeCases, MatricizationColumnOverflowIsRejected) {
  constexpr std::uint64_t k2To32 = std::uint64_t{1} << 32;
  SparseTensor x(std::vector<std::uint64_t>{2, k2To32, k2To32, 2});
  x.AppendEntry({0, 1u << 31, 0, 0}, 3.0);
  x.AppendEntry({1, 0, 0, 0}, 5.0);
  x.SortAndCoalesce();
  EXPECT_FALSE(x.MatricizationColumnsFit(0));
  EXPECT_TRUE(x.MatricizationColumnsFit(1));
  auto gram = ModeGram(x, 0);
  ASSERT_FALSE(gram.ok());
  EXPECT_EQ(gram.status().code(), StatusCode::kInvalidArgument);
  const linalg::Matrix u(2, 1);
  auto product = SparseModeProduct(x, u, 0, /*transpose_u=*/true);
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kInvalidArgument);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CsfModeIndex::Build(x, 0), "2\\^64");

  SparseTensor fits(std::vector<std::uint64_t>{2, k2To32, k2To32});
  fits.AppendEntry({0, 1u << 31, 0}, 3.0);
  fits.AppendEntry({1, 0, 0}, 5.0);
  fits.SortAndCoalesce();
  ASSERT_TRUE(fits.MatricizationColumnsFit(0));
  auto exact = ModeGram(fits, 0);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ((*exact)(0, 0), 9.0);
  EXPECT_EQ((*exact)(0, 1), 0.0);
  EXPECT_EQ((*exact)(1, 0), 0.0);
  EXPECT_EQ((*exact)(1, 1), 25.0);
}

TEST(CsfConcurrency, RacingBuildsAreSafeAndConsistent) {
  DispatchGuard guard;
  ForceIsa("scalar");
  Rng rng(99);
  SparseTensor x = RandomSparse({5, 6, 7}, 0.2, &rng);
  // Precompute the reference serially.
  std::vector<linalg::Matrix> reference;
  for (std::size_t mode = 0; mode < 3; ++mode) {
    auto g = ModeGramCoo(x, mode);
    ASSERT_TRUE(g.ok());
    reference.push_back(*g);
  }
  // Threads race the lazy per-mode builds: several threads per mode, all
  // modes at once (TSAN verifies the once_flag protocol in the cache).
  constexpr int kThreadsPerMode = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreadsPerMode; ++t) {
    for (std::size_t mode = 0; mode < 3; ++mode) {
      threads.emplace_back([&x, &reference, &failures, mode] {
        auto g = ModeGram(x, mode);
        if (!g.ok()) {
          ++failures;
          return;
        }
        for (std::size_t i = 0; i < g->rows(); ++i) {
          for (std::size_t j = 0; j < g->cols(); ++j) {
            if ((*g)(i, j) != reference[mode](i, j)) ++failures;
          }
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TtmChainMemoization, HooiCacheOnOffBitIdenticalAndHitsCounted) {
  Rng rng(123);
  SparseTensor x = RandomSparse({6, 5, 4, 3}, 0.15, &rng);
  const std::vector<std::uint64_t> ranks = {3, 3, 2, 2};

  HooiOptions with_cache;
  with_cache.max_iterations = 3;
  with_cache.memoize_ttm_chains = true;
  HooiOptions without_cache = with_cache;
  without_cache.memoize_ttm_chains = false;

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::GetCounter("tensor.ttm_chain.cache_hits").Reset();

  auto memoized = HooiSparse(x, ranks, with_cache);
  const std::uint64_t hits =
      obs::GetCounter("tensor.ttm_chain.cache_hits").value();
  auto naive = HooiSparse(x, ranks, without_cache);
  obs::SetMetricsEnabled(metrics_were_enabled);

  ASSERT_TRUE(memoized.ok() && naive.ok());
  EXPECT_GT(hits, 0u) << "memoized HOOI never reused a chain prefix";
  ASSERT_EQ(memoized->factors.size(), naive->factors.size());
  for (std::size_t m = 0; m < memoized->factors.size(); ++m) {
    ExpectBitIdentical(memoized->factors[m], naive->factors[m]);
  }
  ExpectBitIdentical(memoized->core, naive->core);
}

TEST(TtmChainMemoization, DenseHooiCacheOnOffBitIdentical) {
  Rng rng(321);
  SparseTensor seed = RandomSparse({5, 4, 3}, 0.4, &rng);
  const DenseTensor x = seed.ToDense();
  const std::vector<std::uint64_t> ranks = {3, 2, 2};

  HooiOptions with_cache;
  with_cache.max_iterations = 3;
  with_cache.memoize_ttm_chains = true;
  HooiOptions without_cache = with_cache;
  without_cache.memoize_ttm_chains = false;

  auto memoized = HooiDense(x, ranks, with_cache);
  auto naive = HooiDense(x, ranks, without_cache);
  ASSERT_TRUE(memoized.ok() && naive.ok());
  for (std::size_t m = 0; m < memoized->factors.size(); ++m) {
    ExpectBitIdentical(memoized->factors[m], naive->factors[m]);
  }
  ExpectBitIdentical(memoized->core, naive->core);
}

}  // namespace
}  // namespace m2td::tensor
