#ifndef M2TD_TENSOR_TTM_H_
#define M2TD_TENSOR_TTM_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief Mode-n tensor–matrix product Y = X ×_n U of a dense tensor.
///
/// Y(i_1,..,j,..,i_N) = sum_{i_n} U(j, i_n) X(i_1,..,i_n,..,i_N).
/// With `transpose_u` the operator is U^T, i.e. the contraction runs over
/// U's rows — the form used to project onto factor matrices when computing
/// a Tucker core (G = X ×_n U^(n)T).
///
/// Complexity: O(|X| * new_dim) flops, all over contiguous memory. For
/// every mode but the last, output rows (the `Stride(mode)` elements
/// sharing one outer index and one j) are built by streaming the input
/// rows i = 0..old_dim-1 through a mul+add the compiler vectorizes; the
/// last mode is a dot over each contiguous input fiber.
///
/// Every output element is the sum over i ascending of U-coefficient *
/// X value, skipping exact zeros of X (so a non-finite coefficient that
/// meets only zero inputs never reaches the output) — whichever of the
/// two layouts runs, the additions and their order are the same.
///
/// Thread-safety/parallelism: const inputs, freshly allocated output;
/// safe to call concurrently. Runs on parallel::GlobalPool() over
/// disjoint output blocks (span "mode_product_rows", or
/// "mode_product_fibers" for the last mode), so the result is
/// bit-identical to the serial loop at every `--threads` value.
Result<DenseTensor> ModeProduct(const DenseTensor& x, const linalg::Matrix& u,
                                std::size_t mode, bool transpose_u);

/// \brief Mode-n product of a *sparse* tensor, producing a dense result of
/// shape (.., new_dim, ..).
///
/// This is the first hop of every core computation: the cost is
/// O(nnz * new_dim) flops regardless of the logical size of X.
///
/// `x` must be coalesced (InvalidArgument otherwise, as for ModeGram): the
/// product runs on the tensor's cached CSF index (tensor/csf.h), one fused
/// pass walking each fiber once and accumulating the output fiber in an
/// L1-resident scratch buffer — no per-call sort and no re-scan of the
/// entry list per output slice. The index is built lazily on first use
/// and amortized across every later kernel call on the same tensor
/// contents (ModeGram shares it). InvalidArgument when the mode-`mode`
/// matricization columns overflow 64 bits (see
/// SparseTensor::MatricizationColumnsFit).
///
/// Thread-safety/parallelism: safe to call concurrently. Fiber-parallel
/// (span "sparse_mode_product_fibers", disjoint output fibers); within a
/// fiber entries accumulate in ascending target-mode coordinate — exactly
/// the stored-order sequence of a COO scan — so results are
/// bit-identical across thread counts. The `transpose_u` scatter runs
/// through linalg::simd::ActiveKernels(): with the scalar table
/// (`M2TD_FORCE_ISA=scalar`) it is bit-identical to the COO oracle in
/// tests/oracles, and the vector tables agree with it to rounding.
Result<DenseTensor> SparseModeProduct(const SparseTensor& x,
                                      const linalg::Matrix& u,
                                      std::size_t mode, bool transpose_u);

/// \brief Tucker core G = X ×_1 U^(1)T ×_2 ... ×_N U^(N)T for a sparse X.
///
/// `factors[m]` must have rows == X.dim(m); its column count becomes core
/// dim m. The first product leaves the sparse domain (SparseModeProduct),
/// the rest are dense chain products over the shrinking intermediate —
/// each hop inherits that kernel's pool parallelism and determinism.
/// Peak memory is the largest intermediate (after the first hop:
/// nnz-independent, prod of r_1 and the remaining full dims).
Result<DenseTensor> CoreFromSparse(const SparseTensor& x,
                                   const std::vector<linalg::Matrix>& factors);

/// Dense-input variant of CoreFromSparse (a chain of ModeProduct calls;
/// same parallelism and determinism guarantees).
Result<DenseTensor> CoreFromDense(const DenseTensor& x,
                                  const std::vector<linalg::Matrix>& factors);

/// Reconstruction X~ = G ×_1 U^(1) ×_2 ... ×_N U^(N). The intermediates
/// *grow* toward the full shape here, so peak memory is ~2x the full
/// tensor; tensor::ReconstructCell reads single cells without it.
Result<DenseTensor> ExpandCore(const DenseTensor& core,
                               const std::vector<linalg::Matrix>& factors);

}  // namespace m2td::tensor

#endif  // M2TD_TENSOR_TTM_H_
