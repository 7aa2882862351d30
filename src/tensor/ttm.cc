#include "tensor/ttm.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/scratch.h"
#include "tensor/csf.h"
#include "util/string_util.h"

namespace m2td::tensor {

namespace {

// out[s] += a * b[s] for s < n. Fixed-width blocks give the inner loop a
// constant trip count, which lets the compiler vectorize it even at -O2.
// The build is ISO C++ (no GNU extensions), where GCC does not contract a
// multiply and an add into an FMA: each element sees exactly the scalar
// multiply, then the add.
void Axpy(std::uint64_t n, double a, const double* __restrict b,
          double* __restrict out) {
  constexpr int kLanes = 8;
  const std::uint64_t full = n - n % kLanes;
  for (std::uint64_t s0 = 0; s0 < full; s0 += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[s0 + l] += a * b[s0 + l];
  }
  for (std::uint64_t s = full; s < n; ++s) out[s] += a * b[s];
}

// out[s] += c * in[s] for every s < n with in[s] != 0. Accumulators start
// at +0.0 and so are never -0.0 (a sum is -0.0 only when both addends
// are), and adding a zero to anything else leaves it unchanged; so for a
// finite c the zero inputs may be added too, and the loop stays
// branch-free. A non-finite c would turn a zero input into NaN: skip them.
void AxpyNonzeros(std::uint64_t n, double c, const double* in,
                  double* out) {
  if (std::isfinite(c)) {
    Axpy(n, c, in, out);
    return;
  }
  for (std::uint64_t s = 0; s < n; ++s) {
    if (in[s] != 0.0) out[s] += c * in[s];
  }
}

Status CheckModeProductShapes(const std::vector<std::uint64_t>& shape,
                              const linalg::Matrix& u, std::size_t mode,
                              bool transpose_u) {
  if (mode >= shape.size()) {
    return Status::InvalidArgument("mode out of range");
  }
  const std::uint64_t contraction = transpose_u ? u.rows() : u.cols();
  if (contraction != shape[mode]) {
    return Status::InvalidArgument(StrFormat(
        "mode product contraction mismatch: matrix %s side %llu vs mode "
        "%zu length %llu",
        transpose_u ? "row" : "column",
        static_cast<unsigned long long>(contraction), mode,
        static_cast<unsigned long long>(shape[mode])));
  }
  return Status::OK();
}

}  // namespace

Result<DenseTensor> ModeProduct(const DenseTensor& x, const linalg::Matrix& u,
                                std::size_t mode, bool transpose_u) {
  M2TD_RETURN_IF_ERROR(CheckModeProductShapes(x.shape(), u, mode,
                                              transpose_u));
  M2TD_TRACE_SCOPE("mode_product");
  const std::uint64_t old_dim = x.dim(mode);
  const std::uint64_t new_dim = transpose_u ? u.cols() : u.rows();

  std::vector<std::uint64_t> out_shape = x.shape();
  out_shape[mode] = new_dim;
  DenseTensor y(out_shape);

  const std::uint64_t stride = x.Stride(mode);
  const std::uint64_t block = stride * old_dim;
  const std::uint64_t out_stride = y.Stride(mode);
  const std::uint64_t out_block = out_stride * new_dim;
  const std::uint64_t outer_count = x.NumElements() / block;
  const double* in = x.data().data();
  double* out = y.mutable_data().data();
  // coef[i * new_dim + j]: the coefficient of input index i in output
  // index j, whichever way U is stored.
  std::vector<double> coef(static_cast<std::size_t>(old_dim * new_dim));
  for (std::size_t i = 0; i < old_dim; ++i) {
    for (std::size_t j = 0; j < new_dim; ++j) {
      coef[i * new_dim + j] = transpose_u ? u(i, j) : u(j, i);
    }
  }

  // Chunks of at least ~32k multiply-adds: enough to amortize a claim,
  // few enough that even a single outer block spreads over the pool.
  auto grain_for = [](std::uint64_t work_per_task) {
    return std::max<std::uint64_t>(
        1, (std::uint64_t{1} << 15) / work_per_task);
  };

  // Every output element starts at +0.0 and adds coef * v for i
  // ascending, skipping v == 0: the additions and their order are those
  // of a per-element dot, so a non-finite coefficient never meets a zero
  // input. Tasks write disjoint outputs, so the result is bit-identical
  // at any thread count.
  if (stride == 1) {
    // Last mode: output fiber f (new_dim contiguous elements) adds v_i
    // times coefficient row i, for each nonzero input v_i of fiber f.
    parallel::ParallelFor(
        0, outer_count, grain_for(old_dim * new_dim),
        [&](std::uint64_t fb, std::uint64_t fe) {
          for (std::uint64_t f = fb; f < fe; ++f) {
            const double* fiber = in + f * block;
            double* out_fiber = out + f * out_block;
            for (std::uint64_t i = 0; i < old_dim; ++i) {
              const double v = fiber[i];
              if (v == 0.0) continue;
              const double* c = coef.data() + i * new_dim;
              Axpy(new_dim, v, c, out_fiber);
            }
          }
        },
        "mode_product_fibers");
    return y;
  }

  // Row streaming: for outer block o, output row j (stride contiguous
  // elements) adds coef(i, j) times the nonzeros of input row i. Tasks
  // are (o, segment of the stride) pairs; the segment keeps the old_dim
  // input rows it re-reads for every j close in cache.
  constexpr std::uint64_t kSegment = 512;
  const std::uint64_t segments = (stride + kSegment - 1) / kSegment;
  parallel::ParallelFor(
      0, outer_count * segments,
      grain_for(old_dim * new_dim * std::min(kSegment, stride)),
      [&](std::uint64_t tb, std::uint64_t te) {
        for (std::uint64_t t = tb; t < te; ++t) {
          const std::uint64_t o = t / segments;
          const std::uint64_t begin = (t % segments) * kSegment;
          const std::uint64_t len = std::min(kSegment, stride - begin);
          const double* in_seg = in + o * block + begin;
          for (std::uint64_t j = 0; j < new_dim; ++j) {
            double* out_row = out + o * out_block + j * out_stride + begin;
            for (std::uint64_t i = 0; i < old_dim; ++i) {
              AxpyNonzeros(len, coef[i * new_dim + j], in_seg + i * stride,
                           out_row);
            }
          }
        }
      },
      "mode_product_rows");
  return y;
}

Result<DenseTensor> SparseModeProduct(const SparseTensor& x,
                                      const linalg::Matrix& u,
                                      std::size_t mode, bool transpose_u) {
  M2TD_RETURN_IF_ERROR(CheckModeProductShapes(x.shape(), u, mode,
                                              transpose_u));
  if (!x.MatricizationColumnsFit(mode)) {
    return Status::InvalidArgument(StrFormat(
        "SparseModeProduct: the mode-%zu matricization has more than 2^64 "
        "columns",
        mode));
  }
  if (!x.IsSorted()) {
    return Status::InvalidArgument(
        "SparseModeProduct requires a coalesced tensor (call "
        "SortAndCoalesce)");
  }
  obs::ObsSpan span("sparse_mode_product");
  span.Annotate("nnz", x.NumNonZeros());
  const std::uint64_t new_dim = transpose_u ? u.cols() : u.rows();

  std::vector<std::uint64_t> out_shape = x.shape();
  out_shape[mode] = new_dim;
  DenseTensor y(out_shape);

  const CsfModeIndex& csf = x.Csf(mode);
  const std::uint64_t out_stride = y.Stride(mode);
  const std::size_t modes = x.num_modes();
  const std::vector<std::uint64_t>& offsets = csf.fiber_offsets();
  const std::vector<std::uint64_t>& columns = csf.fiber_columns();
  const std::vector<std::uint32_t>& leafs = csf.leaf_coords();
  const std::vector<double>& vals = csf.values();

  // One fused pass per fiber: the fiber's entries accumulate into a
  // new_dim-sized scratch buffer (L1-resident), written once to the
  // output fiber. Distinct fibers own distinct output fibers, so chunks
  // write disjoint data; within a fiber the entry order is ascending
  // target coordinate — the same per-output-element addition sequence the
  // COO oracle performs — so the result is deterministic at any
  // thread count.
  //
  // The transpose_u scatter acc += v * urow is a contiguous axpy over the
  // scratch accumulator, dispatched through the SIMD table (one dispatch
  // count per call); with the scalar table this is exactly the COO
  // oracle's arithmetic, and the vector tables agree with it to rounding.
  // The non-transposed form reads u column-wise (strided) and stays a
  // scalar loop.
  const linalg::simd::Kernels& kern = linalg::simd::ActiveKernels();
  parallel::ParallelFor(
      0, csf.num_fibers(), 0,
      [&](std::uint64_t fb, std::uint64_t fe) {
        auto acc = parallel::ScratchArena::Get().Doubles(
            static_cast<std::size_t>(new_dim));
        auto coords = parallel::ScratchArena::Get().U32(modes);
        std::vector<std::uint32_t> idx(modes);
        for (std::uint64_t f = fb; f < fe; ++f) {
          csf.DecodeColumn(columns[static_cast<std::size_t>(f)],
                           coords.data());
          std::size_t cursor = 0;
          for (std::size_t m = 0; m < modes; ++m) {
            idx[m] = (m == mode) ? 0 : coords[cursor++];
          }
          const std::uint64_t base = y.LinearIndex(idx);
          for (std::uint64_t j = 0; j < new_dim; ++j) acc[j] = 0.0;
          const std::uint64_t entry_end =
              offsets[static_cast<std::size_t>(f) + 1];
          for (std::uint64_t e = offsets[static_cast<std::size_t>(f)];
               e < entry_end; ++e) {
            const double v = vals[static_cast<std::size_t>(e)];
            const std::uint32_t c = leafs[static_cast<std::size_t>(e)];
            if (transpose_u) {
              kern.axpy(static_cast<std::size_t>(new_dim), v, u.RowPtr(c),
                        acc.data());
            } else {
              for (std::uint64_t j = 0; j < new_dim; ++j) {
                acc[j] += u(static_cast<std::size_t>(j), c) * v;
              }
            }
          }
          for (std::uint64_t j = 0; j < new_dim; ++j) {
            y.flat(base + j * out_stride) = acc[j];
          }
        }
      },
      "sparse_mode_product_fibers");
  return y;
}

Result<DenseTensor> CoreFromSparse(
    const SparseTensor& x, const std::vector<linalg::Matrix>& factors) {
  if (factors.size() != x.num_modes()) {
    return Status::InvalidArgument("one factor matrix per mode required");
  }
  obs::ObsSpan span("core_from_sparse");
  span.Annotate("nnz", x.NumNonZeros());
  M2TD_ASSIGN_OR_RETURN(
      DenseTensor result,
      SparseModeProduct(x, factors[0], 0, /*transpose_u=*/true));
  for (std::size_t m = 1; m < factors.size(); ++m) {
    M2TD_ASSIGN_OR_RETURN(
        result, ModeProduct(result, factors[m], m, /*transpose_u=*/true));
  }
  return result;
}

Result<DenseTensor> CoreFromDense(
    const DenseTensor& x, const std::vector<linalg::Matrix>& factors) {
  if (factors.size() != x.num_modes()) {
    return Status::InvalidArgument("one factor matrix per mode required");
  }
  DenseTensor result = x;
  for (std::size_t m = 0; m < factors.size(); ++m) {
    M2TD_ASSIGN_OR_RETURN(
        result, ModeProduct(result, factors[m], m, /*transpose_u=*/true));
  }
  return result;
}

Result<DenseTensor> ExpandCore(const DenseTensor& core,
                               const std::vector<linalg::Matrix>& factors) {
  if (factors.size() != core.num_modes()) {
    return Status::InvalidArgument("one factor matrix per mode required");
  }
  M2TD_TRACE_SCOPE("expand_core");
  DenseTensor result = core;
  for (std::size_t m = 0; m < factors.size(); ++m) {
    M2TD_ASSIGN_OR_RETURN(
        result, ModeProduct(result, factors[m], m, /*transpose_u=*/false));
  }
  return result;
}

}  // namespace m2td::tensor
