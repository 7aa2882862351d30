#include "tensor/matricize.h"

#include <string>
#include <vector>

#include "linalg/simd.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "tensor/csf.h"
#include "tensor/gram_groups.h"

namespace m2td::tensor {

namespace {

// CSF Gram accumulation. Within a fiber the leaf coordinates ascend and
// are unique, so for every pair j >= i the target cell is
// acc(rows[i], rows[j]) with rows[j] ascending — the inner loop over j
// is an axpy of values[j] into one Gram row, restricted to maximal runs
// of consecutive row indices. Each (i, j) pair performs the identical
// multiply-add into the identical cell as the generic pair loop of the
// COO oracle (tests/oracles; one contribution per cell per group), so
// with the scalar kernel table this is bit-identical to it; the vector
// tables fuse the multiply-add.
void AccumulateGramCsf(linalg::Matrix* gram, std::size_t n,
                       const std::vector<std::uint64_t>& group_offsets,
                       const std::uint32_t* rows, const double* values,
                       const linalg::simd::Kernels& kern) {
  // Vectorization pays only when the per-pivot axpy runs are long, i.e.
  // when fibers are dense along the gram mode (the ensemble regime: time
  // fibers are fully sampled, sparsity lives across tasks/parameters).
  // Short groups take the scalar pair loop — identical arithmetic, no
  // dispatch overhead — so random ultra-sparse tensors do not regress.
  constexpr std::uint64_t kMinSimdGroup = 8;
  internal::AccumulateGramGroups(
      gram, n, group_offsets,
      [&](linalg::Matrix& acc, std::uint64_t group_begin,
          std::uint64_t group_end) {
        const std::uint64_t len = group_end - group_begin;
        if (len < kMinSimdGroup) {
          for (std::uint64_t i = group_begin; i < group_end; ++i) {
            const double vi = values[i];
            double* acc_row = acc.RowPtr(rows[i]);
            for (std::uint64_t j = i; j < group_end; ++j) {
              acc_row[rows[j]] += vi * values[j];
            }
          }
          return;
        }
        const bool contiguous =
            rows[group_end - 1] - rows[group_begin] ==
            static_cast<std::uint32_t>(len - 1);
        if (contiguous) {
          // Dense fiber: the whole upper-triangle tail for pivot i is one
          // contiguous axpy starting at column rows[i].
          for (std::uint64_t i = group_begin; i < group_end; ++i) {
            kern.axpy(static_cast<std::size_t>(group_end - i), values[i],
                      values + i, acc.RowPtr(rows[i]) + rows[i]);
          }
          return;
        }
        for (std::uint64_t i = group_begin; i < group_end; ++i) {
          const double vi = values[i];
          double* acc_row = acc.RowPtr(rows[i]);
          std::uint64_t j = i;
          while (j < group_end) {
            const std::uint64_t run_begin = j;
            const std::uint32_t run_row = rows[j];
            ++j;
            while (j < group_end &&
                   rows[j] == run_row + static_cast<std::uint32_t>(
                                            j - run_begin)) {
              ++j;
            }
            kern.axpy(static_cast<std::size_t>(j - run_begin), vi,
                      values + run_begin, acc_row + run_row);
          }
        }
      });
}

}  // namespace

Result<linalg::Matrix> ModeGram(const SparseTensor& x, std::size_t mode) {
  if (mode >= x.num_modes()) {
    return Status::InvalidArgument("ModeGram: mode out of range");
  }
  if (!x.IsSorted()) {
    return Status::InvalidArgument(
        "ModeGram requires a coalesced tensor (call SortAndCoalesce)");
  }
  if (!x.MatricizationColumnsFit(mode)) {
    return Status::InvalidArgument(
        "ModeGram: the mode-" + std::to_string(mode) +
        " matricization has more than 2^64 columns");
  }
  const std::size_t n = static_cast<std::size_t>(x.dim(mode));
  obs::ObsSpan span("mode_gram");
  span.Annotate("mode", static_cast<std::uint64_t>(mode));
  span.Annotate("dim", static_cast<std::uint64_t>(n));
  span.Annotate("nnz", x.NumNonZeros());
  linalg::Matrix gram(n, n);
  if (x.NumNonZeros() == 0) return gram;

  // A CSF fiber *is* a column group, already in ascending column order:
  // no per-call sort, and the index is shared with every other kernel
  // call on this tensor's contents.
  const CsfModeIndex& csf = x.Csf(mode);
  AccumulateGramCsf(&gram, n, csf.fiber_offsets(),
                    csf.leaf_coords().data(), csf.values().data(),
                    linalg::simd::ActiveKernels());
  return gram;
}

Result<linalg::Matrix> Matricize(const DenseTensor& x, std::size_t mode) {
  if (mode >= x.num_modes()) {
    return Status::InvalidArgument("Matricize: mode out of range");
  }
  const std::size_t n = static_cast<std::size_t>(x.dim(mode));
  const std::uint64_t cols = x.NumElements() / n;
  linalg::Matrix out(n, static_cast<std::size_t>(cols));

  // Pure assignment kernel: every linear index maps to a distinct
  // (row, column) cell, so chunks write disjoint data and the result is
  // bit-identical at any thread count. The per-element body is a few ns,
  // so an explicit large grain keeps pool fan-out from dominating small
  // unfoldings (the default grain still applies its own floor, but this
  // kernel warrants a bigger one).
  const std::size_t modes = x.num_modes();
  parallel::ParallelFor(
      0, x.NumElements(), 8192,
      [&](std::uint64_t lb, std::uint64_t le) {
        std::vector<std::uint32_t> idx(modes);
        for (std::uint64_t linear = lb; linear < le; ++linear) {
          std::uint64_t rest = linear;
          for (std::size_t m = 0; m < modes; ++m) {
            idx[m] = static_cast<std::uint32_t>(rest / x.Stride(m));
            rest %= x.Stride(m);
          }
          std::uint64_t column = 0;
          for (std::size_t m = 0; m < modes; ++m) {
            if (m == mode) continue;
            column = column * x.dim(m) + idx[m];
          }
          out(idx[mode], static_cast<std::size_t>(column)) = x.flat(linear);
        }
      },
      "matricize");
  return out;
}

Result<linalg::Matrix> ModeGramDense(const DenseTensor& x, std::size_t mode) {
  M2TD_ASSIGN_OR_RETURN(linalg::Matrix unfolded, Matricize(x, mode));
  return linalg::MultiplyTransB(unfolded, unfolded);
}

}  // namespace m2td::tensor
