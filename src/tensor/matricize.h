#ifndef M2TD_TENSOR_MATRICIZE_H_
#define M2TD_TENSOR_MATRICIZE_H_

#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::tensor {

/// \brief Gram matrix G = X_(n) X_(n)^T of the mode-n matricization of a
/// sparse tensor.
///
/// The matricization itself (I_n rows, prod-of-other-dims columns) is
/// never materialized: each matricization column's entries contribute an
/// outer product to the I_n x I_n Gram. This is what makes HOSVD of
/// extremely sparse, high-modal ensemble tensors cheap — the paper's key
/// computational primitive. Requires a coalesced tensor (duplicate
/// coordinates would double-count; InvalidArgument if unsorted) whose
/// matricization columns fit in 64 bits (InvalidArgument otherwise; see
/// SparseTensor::MatricizationColumnsFit).
///
/// Column groups come from the tensor's cached CSF index (tensor/csf.h):
/// a fiber *is* a column group, so the per-call O(nnz log nnz) column
/// sort the COO path pays is replaced by one lazily built, shared index
/// per (tensor contents, mode) — repeated Gram calls (HOSVD's per-mode
/// loop, M2TD's sub-factor solves, every HOOI sweep) reuse it for free.
///
/// Complexity: O(sum_c g_c^2) outer-product work per call (g_c = entries
/// sharing column c) after the one-off index build; memory is the
/// I_n x I_n Gram plus the shared index.
///
/// Thread-safety/parallelism: safe to call concurrently. Large inputs
/// accumulate per-chunk partial Grams on parallel::GlobalPool() (span
/// "mode_gram_partials"), split at column-group boundaries and merged in
/// ascending chunk order. The chunking is a pure function of the group
/// count — never the pool size — so results are bit-identical across
/// `--threads` values (the chunked merge does reassociate the sums
/// relative to a single serial accumulator, deterministically).
///
/// The pair products run through linalg::simd::ActiveKernels(). With the
/// scalar table (`M2TD_FORCE_ISA=scalar`) the result is bit-identical to
/// the COO oracle in tests/oracles (each Gram cell receives at most one
/// contribution per column group, and both visit groups in ascending
/// column order); the vector tables agree with it to rounding.
Result<linalg::Matrix> ModeGram(const SparseTensor& x, std::size_t mode);

/// Dense-tensor Gram of the mode-n matricization (test oracle for
/// ModeGram and used on small dense tensors). Implemented as
/// Matricize + MultiplyTransB, so it inherits their pool parallelism:
/// O(|X| * I_n) flops, one |X|-sized temporary.
Result<linalg::Matrix> ModeGramDense(const DenseTensor& x, std::size_t mode);

/// \brief Fully materialized mode-n matricization of a dense tensor
/// (I_n x prod-of-others), row-major.
///
/// Column ordering matches SparseTensor::MatricizationColumn: the remaining
/// modes in increasing mode order, last varying fastest.
///
/// Complexity: O(|X|) assignments (pure data movement, gather-order reads
/// against scatter-order writes). Thread-safe; runs as a disjoint-write
/// ParallelFor (span "matricize"), bit-identical at any thread count.
Result<linalg::Matrix> Matricize(const DenseTensor& x, std::size_t mode);

}  // namespace m2td::tensor

#endif  // M2TD_TENSOR_MATRICIZE_H_
