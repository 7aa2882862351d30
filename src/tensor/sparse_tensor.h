#ifndef M2TD_TENSOR_SPARSE_TENSOR_H_
#define M2TD_TENSOR_SPARSE_TENSOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tensor/dense_tensor.h"
#include "util/logging.h"
#include "util/result.h"

namespace m2td::tensor {

class CsfCache;
class CsfModeIndex;

/// How SortAndCoalesce merges duplicate coordinates.
enum class CoalescePolicy {
  /// Duplicate values are summed (default COO semantics).
  kSum,
  /// Duplicate values are averaged — the paper's join semantics, where a
  /// cell observed by both sub-ensembles takes the mean of the two
  /// observations.
  kMean,
};

/// \brief Sparse N-mode tensor in coordinate (COO) format,
/// struct-of-arrays layout.
///
/// One uint32 index array per mode plus one value array; this is the format
/// the ensemble samplers emit and the layout the Gram/TTM kernels consume.
/// Mutation (AppendEntry, FromArrays) may create duplicates and unsorted
/// order; call SortAndCoalesce before handing the tensor to a kernel that
/// requires canonical form (kernels that do say so in their contract).
class SparseTensor {
 public:
  SparseTensor() = default;

  /// Tensor of the given logical shape with no stored entries.
  explicit SparseTensor(std::vector<std::uint64_t> shape);

  /// \brief Bulk constructor: adopts one index array per mode plus the
  /// value array, in entry order.
  ///
  /// Every index is range-checked (one tight pass per mode), so this is as
  /// safe as AppendEntry without its per-entry cost. InvalidArgument on a
  /// zero-length or over-long (> 2^32) mode, a wrong number of index
  /// arrays, an array whose length differs from `values`, or an
  /// out-of-range index (naming its mode and entry). Values are not
  /// screened (see CheckFinite). The result is unsorted unless empty;
  /// call SortAndCoalesce before a canonical-form kernel.
  static Result<SparseTensor> FromArrays(
      std::vector<std::uint64_t> shape,
      std::vector<std::vector<std::uint32_t>> indices,
      std::vector<double> values);

  SparseTensor(const SparseTensor&) = default;
  SparseTensor& operator=(const SparseTensor&) = default;
  SparseTensor(SparseTensor&&) = default;
  SparseTensor& operator=(SparseTensor&&) = default;

  const std::vector<std::uint64_t>& shape() const { return shape_; }
  std::size_t num_modes() const { return shape_.size(); }
  std::uint64_t dim(std::size_t mode) const { return shape_[mode]; }
  std::uint64_t NumNonZeros() const { return values_.size(); }

  /// Total number of cells in the logical (dense) space.
  std::uint64_t LogicalSize() const;

  /// nnz / logical size.
  double Density() const;

  void Reserve(std::uint64_t nnz);

  /// Appends one entry. Aborts when an index is out of range.
  void AppendEntry(const std::vector<std::uint32_t>& indices, double value);

  /// Status-returning AppendEntry for ingest boundaries (file loaders,
  /// external data): rejects a wrong arity or out-of-range index and, most
  /// importantly, a non-finite (NaN/Inf) value — with InvalidArgument
  /// naming the offending coordinate. Nothing is appended on failure.
  Status AppendEntryChecked(const std::vector<std::uint32_t>& indices,
                            double value);

  /// Scans every stored value; InvalidArgument naming the coordinate of
  /// the first non-finite (NaN/Inf) value, OK otherwise. The bulk flavour
  /// of AppendEntryChecked's value screen, for tensors assembled via the
  /// unchecked fast path.
  Status CheckFinite() const;

  /// Index of entry `e` along `mode`.
  std::uint32_t Index(std::size_t mode, std::uint64_t entry) const {
    return indices_[mode][entry];
  }
  double Value(std::uint64_t entry) const { return values_[entry]; }

  /// Mutable reference to a stored value. Invalidates any cached CSF
  /// indexes (the reference must not be written after a later Csf()
  /// call, which would snapshot the pre-write value).
  double& MutableValue(std::uint64_t entry);

  const std::vector<std::uint32_t>& IndexArray(std::size_t mode) const {
    return indices_[mode];
  }
  const std::vector<double>& Values() const { return values_; }

  /// \brief Sorts entries lexicographically by coordinates and merges
  /// duplicates per `policy`. Idempotent.
  ///
  /// The order is stable: duplicates of one coordinate merge in append
  /// order (a sum of three or more values is order dependent in floating
  /// point, so this fixes the result). kMean divides each merged sum by
  /// its duplicate count. Cost is O(nnz * N): a linear check that returns
  /// early on input that is already sorted and duplicate-free, otherwise
  /// a stable LSD radix pass over the index arrays followed by one
  /// linear merge pass. Transient memory is a few 32-bit arrays of nnz
  /// entries (64-bit past 2^32 entries) plus one mode's index array.
  void SortAndCoalesce(CoalescePolicy policy = CoalescePolicy::kSum);

  bool IsSorted() const { return sorted_; }

  /// Looks up the value stored at `indices`. Requires a prior
  /// SortAndCoalesce (aborts otherwise). Returns nullopt for cells with no
  /// stored entry.
  std::optional<double> Find(const std::vector<std::uint32_t>& indices) const;

  /// Materializes the tensor densely, unset cells becoming 0. Fails if the
  /// logical space is too large for DenseTensor.
  DenseTensor ToDense() const;

  /// Builds a sparse tensor from all non-zero cells of `dense`.
  static SparseTensor FromDense(const DenseTensor& dense,
                                double zero_tol = 0.0);

  double FrobeniusNorm() const;

  /// Mode-`mode` matricization column of every stored entry, in stored
  /// order: the row-major linear index over all modes *except* `mode`
  /// (the first listed mode is the slowest). This is the one definition
  /// of the column layout; the CSF index (and through it ModeGram and
  /// SparseModeProduct) is built from it. One sequential sweep per mode.
  /// Exact only when MatricizationColumnsFit(mode); past that columns
  /// wrap modulo 2^64.
  std::vector<std::uint64_t> MatricizationColumns(std::size_t mode) const;

  /// True when every mode-`mode` matricization column fits in 64 bits,
  /// i.e. the product of the other modes' lengths is at most 2^64. The
  /// CSF index and the kernels built on it (ModeGram, SparseModeProduct)
  /// require it.
  bool MatricizationColumnsFit(std::size_t mode) const;

  /// \brief The compressed-sparse-fiber index for `mode` (see
  /// tensor/csf.h), built lazily on first use and cached for the life of
  /// this tensor's current contents.
  ///
  /// Requires a sorted, coalesced tensor (aborts otherwise). The cache is
  /// shared between copies and thread-safe: concurrent calls — including
  /// HOSVD's mode-parallel factor loop — build each mode's index at most
  /// once. Mutation (SortAndCoalesce, MutableValue) detaches this
  /// tensor's cache; AppendEntry clears the sorted flag, which blocks
  /// access until the next SortAndCoalesce swaps in a fresh cache.
  const CsfModeIndex& Csf(std::size_t mode) const;

 private:
  std::vector<std::uint64_t> shape_;
  std::vector<std::vector<std::uint32_t>> indices_;
  std::vector<double> values_;
  bool sorted_ = true;  // trivially true while empty
  // Shared with copies; swapped (never cleared in place) on mutation so
  // copies holding the old pointer stay consistent. Null only for the
  // default-constructed 0-mode tensor.
  std::shared_ptr<CsfCache> csf_cache_;
};

}  // namespace m2td::tensor

#endif  // M2TD_TENSOR_SPARSE_TENSOR_H_
