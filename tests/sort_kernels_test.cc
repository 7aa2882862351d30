// Oracle equality for the linear-time ordering and row-streaming kernels
// (ctest -L tensor): SortAndCoalesce and the CSF fiber order against
// comparator sorts, JeStitch against the append-based assembly, and the
// dense ModeProduct family against the strided-gather loop. Every
// comparison is exact — the rewritten kernels promise the same bits, not
// merely close values.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/je_stitch.h"
#include "core/pf_partition.h"
#include "oracles/je_stitch_append.h"
#include "oracles/mode_product_gather.h"
#include "oracles/sort_coalesce.h"
#include "parallel/thread_pool.h"
#include "tensor/csf.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "tensor/ttm.h"
#include "util/random.h"

namespace m2td::tensor {
namespace {

constexpr std::uint64_t k2To32 = std::uint64_t{1} << 32;

// Restores the global pool size on scope exit.
class PoolSize {
 public:
  explicit PoolSize(int threads) : previous_(parallel::GlobalThreads()) {
    parallel::SetGlobalThreads(threads);
  }
  ~PoolSize() { parallel::SetGlobalThreads(previous_); }

 private:
  int previous_;
};

// `nnz` entries with uniformly drawn coordinates; about a third repeat an
// earlier entry's coordinates (with a fresh value), so runs of two and
// more duplicates are common.
SparseTensor RandomWithDuplicates(const std::vector<std::uint64_t>& shape,
                                  std::uint64_t nnz, Rng* rng) {
  SparseTensor x(shape);
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    if (e > 0 && rng->UniformInt(3) == 0) {
      const std::uint64_t src = rng->UniformInt(e);
      for (std::size_t m = 0; m < shape.size(); ++m) idx[m] = x.Index(m, src);
    } else {
      for (std::size_t m = 0; m < shape.size(); ++m) {
        idx[m] = static_cast<std::uint32_t>(rng->UniformInt(shape[m]));
      }
    }
    x.AppendEntry(idx, rng->Gaussian());
  }
  return x;
}

// Shapes covering every digit-width edge: dim 1 (skipped), small dims
// fused into one digit, the 2^8 and 2^16 boundaries, a wide key needing a
// high-digit pass, and full 32-bit indices.
std::vector<std::vector<std::uint64_t>> EdgeShapes() {
  return {
      {1},
      {2},
      {1, 2, 255},
      {256, 1, 2},
      {65535, 2},
      {65536, 255},
      {2, 65536},
      {70000, 3},
      {3, 70000, 1},
      {k2To32},
      {k2To32, 2},
      {2, k2To32, 256},
      {255, 256, 2, 2, 3},
  };
}

std::string ShapeName(const std::vector<std::uint64_t>& shape) {
  std::string out;
  for (std::uint64_t d : shape) out += std::to_string(d) + " ";
  return out;
}

TEST(SortAndCoalesceOracle, MatchesComparatorOnEdgeShapes) {
  Rng rng(20261017);
  for (const std::vector<std::uint64_t>& shape : EdgeShapes()) {
    for (std::uint64_t nnz : {0, 1, 2, 37, 3000}) {
      for (CoalescePolicy policy :
           {CoalescePolicy::kSum, CoalescePolicy::kMean}) {
        SparseTensor x = RandomWithDuplicates(shape, nnz, &rng);
        const CooArrays expected = SortAndCoalesceComparator(x, policy);
        x.SortAndCoalesce(policy);
        ASSERT_TRUE(x.IsSorted());
        ASSERT_EQ(ArraysOf(x), expected)
            << "shape " << ShapeName(shape) << " nnz " << nnz << " policy "
            << static_cast<int>(policy);
        // Idempotent: a second call changes nothing.
        x.SortAndCoalesce(policy);
        ASSERT_EQ(ArraysOf(x), expected);
      }
    }
  }
}

TEST(SortAndCoalesceOracle, AlreadySortedInputWithDuplicates) {
  // In lexicographic order already, but with runs to merge: the stable
  // radix pass leaves the order as it is and the merge still runs.
  SparseTensor x({4, 3});
  x.AppendEntry({0, 1}, 1.0);
  x.AppendEntry({0, 1}, 2.0);
  x.AppendEntry({1, 0}, 3.0);
  x.AppendEntry({3, 2}, 4.0);
  x.AppendEntry({3, 2}, 5.0);
  x.AppendEntry({3, 2}, 6.0);
  const CooArrays expected =
      SortAndCoalesceComparator(x, CoalescePolicy::kMean);
  x.SortAndCoalesce(CoalescePolicy::kMean);
  EXPECT_EQ(ArraysOf(x), expected);
  EXPECT_EQ(x.Values(), (std::vector<double>{1.5, 3.0, 5.0}));
}

// The contract: duplicates merge in append order. 1e16 + 1 rounds back to
// 1e16, so the three-way sum is 0 in append order (1e16, 1, -1e16) and 1
// in the order (1e16, -1e16, 1).
TEST(SortAndCoalesceOracle, DuplicatesMergeInAppendOrder) {
  for (CoalescePolicy policy : {CoalescePolicy::kSum, CoalescePolicy::kMean}) {
    SparseTensor x({5, 5});
    x.AppendEntry({4, 4}, 7.0);  // forces a real reordering pass
    x.AppendEntry({2, 3}, 1e16);
    x.AppendEntry({0, 1}, 1e16);
    x.AppendEntry({2, 3}, 1.0);
    x.AppendEntry({0, 1}, -1e16);
    x.AppendEntry({2, 3}, -1e16);
    x.AppendEntry({0, 1}, 1.0);
    x.SortAndCoalesce(policy);
    ASSERT_EQ(x.NumNonZeros(), 3u);
    const double scale = policy == CoalescePolicy::kMean ? 3.0 : 1.0;
    EXPECT_EQ(*x.Find({0, 1}), 1.0 / scale);  // (1e16 + -1e16) + 1
    EXPECT_EQ(*x.Find({2, 3}), 0.0);          // (1e16 + 1) + -1e16
    EXPECT_EQ(*x.Find({4, 4}), 7.0);
  }
}

TEST(CsfFiberOrderOracle, MatchesComparatorPermutationOnEveryMode) {
  Rng rng(77);
  std::vector<std::vector<std::uint64_t>> shapes = EdgeShapes();
  shapes.push_back({16, 16, 16, 16, 16});
  // Boundary: with mode 1 as target the columns span exactly 2^64.
  shapes.push_back({k2To32, 3, k2To32});
  for (const std::vector<std::uint64_t>& shape : shapes) {
    SparseTensor x = RandomWithDuplicates(shape, 2000, &rng);
    x.SortAndCoalesce();
    for (std::size_t mode = 0; mode < shape.size(); ++mode) {
      if (!x.MatricizationColumnsFit(mode)) continue;
      const std::vector<std::uint64_t> perm =
          CsfFiberOrderComparator(x, mode);
      const CsfModeIndex csf = CsfModeIndex::Build(x, mode);
      ASSERT_EQ(csf.num_entries(), perm.size());
      const std::vector<std::uint64_t> entry_columns =
          x.MatricizationColumns(mode);
      std::vector<std::uint64_t> offsets, columns;
      for (std::size_t p = 0; p < perm.size(); ++p) {
        ASSERT_EQ(csf.leaf_coords()[p], x.Index(mode, perm[p]))
            << "shape " << ShapeName(shape) << " mode " << mode << " p " << p;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(csf.values()[p]),
                  std::bit_cast<std::uint64_t>(x.Value(perm[p])));
        const std::uint64_t column = entry_columns[perm[p]];
        if (columns.empty() || columns.back() != column) {
          offsets.push_back(p);
          columns.push_back(column);
        }
      }
      offsets.push_back(perm.size());
      EXPECT_EQ(csf.fiber_columns(), columns);
      EXPECT_EQ(csf.fiber_offsets(), offsets);
    }
  }
}

TEST(FromArrays, AdoptsArraysAndRangeChecks) {
  auto ok = SparseTensor::FromArrays({3, 4}, {{2, 0, 2}, {1, 3, 1}},
                                     {1.0, 2.0, 3.0});
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(ok->IsSorted());
  ok->SortAndCoalesce();
  EXPECT_EQ(ArraysOf(*ok),
            (CooArrays{{{0, 2}, {3, 1}}, {2.0, 4.0}}));

  auto empty = SparseTensor::FromArrays({3}, {{}}, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->IsSorted());

  auto out_of_range = SparseTensor::FromArrays({3, 4}, {{2, 0, 2}, {1, 4, 1}},
                                               {1.0, 2.0, 3.0});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out_of_range.status().message().find("mode 1"), std::string::npos)
      << out_of_range.status();
  EXPECT_NE(out_of_range.status().message().find("entry 1"),
            std::string::npos)
      << out_of_range.status();

  EXPECT_FALSE(SparseTensor::FromArrays({3, 4}, {{0}}, {1.0}).ok());
  EXPECT_FALSE(SparseTensor::FromArrays({3, 4}, {{0}, {0, 1}}, {1.0}).ok());
  EXPECT_FALSE(SparseTensor::FromArrays({0, 4}, {{}, {}}, {}).ok());
  EXPECT_FALSE(SparseTensor::FromArrays({k2To32 + 1}, {{}}, {}).ok());
}

// ------------------------------------------------------------- JeStitch

// A sub-tensor with `pivot_dims` then `side_dims` modes, keeping each
// cell with probability `density` (always at least one cell).
SparseTensor RandomSide(const std::vector<std::uint64_t>& shape,
                        double density, Rng* rng) {
  SparseTensor x(shape);
  std::uint64_t cells = 1;
  for (std::uint64_t d : shape) cells *= d;
  DenseTensor scan(shape);
  for (std::uint64_t c = 0; c < cells; ++c) {
    if (rng->UniformDouble() >= density && !(c == 0 && density > 0.0)) {
      continue;
    }
    const std::vector<std::uint32_t> idx = scan.MultiIndex(c);
    x.AppendEntry(idx, rng->Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

struct StitchCase {
  const char* name;
  std::vector<std::uint64_t> full_shape;
  core::PfPartition partition;
  double density;
};

std::vector<std::uint64_t> DimsOf(const std::vector<std::uint64_t>& full,
                                  const std::vector<std::size_t>& pivots,
                                  const std::vector<std::size_t>& side) {
  std::vector<std::uint64_t> dims;
  for (std::size_t m : pivots) dims.push_back(full[m]);
  for (std::size_t m : side) dims.push_back(full[m]);
  return dims;
}

TEST(JeStitchOracle, MatchesAppendAssemblyAcrossPartitionsAndPools) {
  const std::vector<StitchCase> cases = {
      // Pivot and side modes interleave in original mode order.
      {"interleaved", {4, 3, 5, 2, 3}, {{2}, {0, 4}, {1, 3}}, 0.6},
      // Two pivots listed out of mode order, sides likewise.
      {"unordered", {3, 4, 2, 5, 3}, {{3, 1}, {4, 0}, {2}}, 0.5},
      // Pivot first, sides in order: the emission is already sorted.
      {"ordered", {5, 3, 4}, {{0}, {1}, {2}}, 0.7},
      // Dense sides: every pivot matches on both.
      {"dense", {6, 4, 4}, {{1}, {0}, {2}}, 1.0},
      // Very sparse: pivots present on one side only.
      {"sparse", {4, 6, 5, 3}, {{1}, {0, 3}, {2}}, 0.08},
  };
  for (const StitchCase& c : cases) {
    Rng rng(std::hash<std::string>{}(c.name));
    core::SubEnsembles subs;
    subs.x1 = RandomSide(DimsOf(c.full_shape, c.partition.pivot_modes,
                                c.partition.side1_modes),
                         c.density, &rng);
    subs.x2 = RandomSide(DimsOf(c.full_shape, c.partition.pivot_modes,
                                c.partition.side2_modes),
                         c.density, &rng);
    for (bool zero_join : {false, true}) {
      core::StitchOptions options;
      options.zero_join = zero_join;
      const CooArrays expected =
          core::JeStitchAppend(subs, c.partition, c.full_shape, options);
      for (int threads : {1, 4}) {
        PoolSize pool(threads);
        auto join = core::JeStitch(subs, c.partition, c.full_shape, options);
        ASSERT_TRUE(join.ok()) << join.status();
        ASSERT_TRUE(join->IsSorted());
        EXPECT_GT(join->NumNonZeros(), 0u) << c.name;
        ASSERT_EQ(ArraysOf(*join), expected)
            << c.name << " zero_join " << zero_join << " threads "
            << threads;
      }
    }
  }
}

TEST(JeStitchOracle, RejectsSubTensorShapeMismatch) {
  core::PfPartition partition{{0}, {1}, {2}};
  core::SubEnsembles subs;
  subs.x1 = SparseTensor({3, 4});
  subs.x2 = SparseTensor({3, 6});  // full mode 2 has length 5
  auto join = core::JeStitch(subs, partition, {3, 4, 5});
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- ModeProduct

void ExpectSameBits(const DenseTensor& a, const DenseTensor& b,
                    const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::uint64_t i = 0; i < a.NumElements(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.flat(i)),
              std::bit_cast<std::uint64_t>(b.flat(i)))
        << what << " flat index " << i << ": " << a.flat(i) << " vs "
        << b.flat(i);
  }
}

// Gaussian entries with a share of exact zeros (both signs).
DenseTensor RandomDenseWithZeros(const std::vector<std::uint64_t>& shape,
                                 Rng* rng) {
  DenseTensor x(shape);
  for (std::uint64_t i = 0; i < x.NumElements(); ++i) {
    const std::uint64_t r = rng->UniformInt(5);
    x.flat(i) = r == 0 ? 0.0 : r == 1 ? -0.0 : rng->Gaussian();
  }
  return x;
}

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  linalg::Matrix u(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) u(i, j) = rng->Gaussian();
  }
  return u;
}

// Zeroes the mode-`mode` slice `index` of `x`.
void ZeroSlice(DenseTensor* x, std::size_t mode, std::uint32_t index) {
  for (std::uint64_t i = 0; i < x->NumElements(); ++i) {
    if (x->MultiIndex(i)[mode] == index) x->flat(i) = 0.0;
  }
}

// Shapes whose mode strides cover the last mode (stride 1), short strides,
// and strides longer than one streaming segment with a ragged tail.
std::vector<std::vector<std::uint64_t>> ProductShapes() {
  return {{7}, {3, 5}, {4, 3, 5, 2}, {3, 700, 5}, {2, 3, 1, 9}};
}

TEST(ModeProductOracle, BitIdenticalToGatherOnEveryModeAndPool) {
  Rng rng(4242);
  for (const std::vector<std::uint64_t>& shape : ProductShapes()) {
    DenseTensor x = RandomDenseWithZeros(shape, &rng);
    for (std::size_t mode = 0; mode < shape.size(); ++mode) {
      const std::size_t old_dim = static_cast<std::size_t>(shape[mode]);
      // Contraction index 0 pairs non-finite coefficients with an
      // all-zero input slice: the zero skip must keep them out.
      DenseTensor xz = x;
      ZeroSlice(&xz, mode, 0);
      for (bool transpose_u : {false, true}) {
        const std::size_t new_dim = 1 + rng.UniformInt(6);
        linalg::Matrix u = transpose_u ? RandomMatrix(old_dim, new_dim, &rng)
                                       : RandomMatrix(new_dim, old_dim, &rng);
        for (std::size_t j = 0; j < new_dim; ++j) {
          const double bad = j % 2 == 0
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : -std::numeric_limits<double>::infinity();
          if (transpose_u) {
            u(0, j) = bad;
          } else {
            u(j, 0) = bad;
          }
        }
        auto expected = ModeProductGather(xz, u, mode, transpose_u);
        ASSERT_TRUE(expected.ok());
        for (std::uint64_t i = 0; i < expected->NumElements(); ++i) {
          ASSERT_TRUE(std::isfinite(expected->flat(i)));
        }
        for (int threads : {1, 2, 4}) {
          PoolSize pool(threads);
          auto got = ModeProduct(xz, u, mode, transpose_u);
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectSameBits(*got, *expected,
                         "shape " + ShapeName(shape) + "mode " +
                             std::to_string(mode) + " transpose " +
                             std::to_string(transpose_u) + " threads " +
                             std::to_string(threads));
        }
      }
    }
  }
}

TEST(ModeProductOracle, ChainsBitIdenticalToGather) {
  Rng rng(99);
  for (const std::vector<std::uint64_t>& shape : ProductShapes()) {
    const DenseTensor x = RandomDenseWithZeros(shape, &rng);
    std::vector<linalg::Matrix> factors;
    std::vector<std::uint64_t> core_shape;
    for (std::uint64_t d : shape) {
      const std::size_t r = static_cast<std::size_t>(1 + rng.UniformInt(d));
      factors.push_back(RandomMatrix(static_cast<std::size_t>(d), r, &rng));
      core_shape.push_back(r);
    }
    const DenseTensor core = RandomDenseWithZeros(core_shape, &rng);
    auto core_expected = CoreFromDenseGather(x, factors);
    auto expand_expected = ExpandCoreGather(core, factors);
    ASSERT_TRUE(core_expected.ok());
    ASSERT_TRUE(expand_expected.ok());
    for (int threads : {1, 2, 4}) {
      PoolSize pool(threads);
      auto core_got = CoreFromDense(x, factors);
      auto expand_got = ExpandCore(core, factors);
      ASSERT_TRUE(core_got.ok());
      ASSERT_TRUE(expand_got.ok());
      ExpectSameBits(*core_got, *core_expected,
                     "CoreFromDense " + ShapeName(shape));
      ExpectSameBits(*expand_got, *expand_expected,
                     "ExpandCore " + ShapeName(shape));
    }
  }
}

}  // namespace
}  // namespace m2td::tensor
