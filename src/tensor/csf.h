#ifndef M2TD_TENSOR_CSF_H_
#define M2TD_TENSOR_CSF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace m2td::tensor {

class SparseTensor;

/// \brief Compressed-sparse-fiber (CSF) view of a sorted SparseTensor for
/// one target mode.
///
/// Entries are regrouped into *fibers*: runs sharing the same coordinates
/// on every mode except the target. Fiber f owns the entry range
/// [fiber_offsets()[f], fiber_offsets()[f+1]) of the permuted
/// leaf_coords()/values() arrays; fiber_columns()[f] is the fiber's
/// mode-`mode` matricization column (row-major over the other modes in
/// increasing mode order — identical to
/// SparseTensor::MatricizationColumn), strictly ascending across fibers.
/// Within a fiber, entries are ordered by ascending leaf (target-mode)
/// coordinate — the same relative order a column-sorted COO scan visits
/// them in, which is what keeps the CSF kernels bit-identical to the COO
/// reference kernels.
///
/// Build cost: O(nnz · N). Fiber order comes from one stable radix pass
/// over the non-target modes of the already lexicographic tensor (equal
/// columns keep their stored, ascending-leaf order), skipped when the
/// target is the last mode, where the stored order already is fiber
/// order; one more linear pass computes the columns and copies the
/// leaves and values. Requires SparseTensor::MatricizationColumnsFit
/// (aborts otherwise: a wrapped column would merge distinct fibers). The
/// index is immutable after Build; all accessors are const and safe to
/// share across threads.
///
/// Observability: each build runs under span "csf_build" (annotated with
/// mode/nnz/fibers) and bumps counters `tensor.csf.builds` /
/// `tensor.csf.build_us`; gauge `tensor.csf.build_seconds` tracks the
/// cumulative process-wide build time in seconds.
class CsfModeIndex {
 public:
  /// Builds the index for `mode` from a sorted, coalesced tensor (aborts
  /// on an unsorted input, an out-of-range mode, or matricization columns
  /// that overflow 64 bits).
  static CsfModeIndex Build(const SparseTensor& x, std::size_t mode);

  /// The target mode this index compresses.
  std::size_t mode() const { return mode_; }

  /// Number of distinct fibers (== distinct matricization columns).
  std::uint64_t num_fibers() const {
    return static_cast<std::uint64_t>(fiber_columns_.size());
  }

  /// Total entries indexed (== the source tensor's nnz at build time).
  std::uint64_t num_entries() const {
    return static_cast<std::uint64_t>(values_.size());
  }

  /// Entry-range boundaries per fiber; size num_fibers() + 1.
  const std::vector<std::uint64_t>& fiber_offsets() const {
    return fiber_offsets_;
  }

  /// Matricization column per fiber, strictly ascending.
  const std::vector<std::uint64_t>& fiber_columns() const {
    return fiber_columns_;
  }

  /// Target-mode coordinate per (permuted) entry, ascending within each
  /// fiber.
  const std::vector<std::uint32_t>& leaf_coords() const {
    return leaf_coords_;
  }

  /// Value per (permuted) entry, aligned with leaf_coords().
  const std::vector<double>& values() const { return values_; }

  /// Dimensions of the non-target modes, in increasing mode order (the
  /// radix basis of fiber_columns()).
  const std::vector<std::uint64_t>& other_dims() const { return other_dims_; }

  /// Decodes `column` into per-other-mode coordinates (same order as
  /// other_dims()); `coords` must have room for other_dims().size()
  /// values.
  void DecodeColumn(std::uint64_t column, std::uint32_t* coords) const;

 private:
  std::size_t mode_ = 0;
  std::vector<std::uint64_t> other_dims_;
  std::vector<std::uint64_t> fiber_offsets_;
  std::vector<std::uint64_t> fiber_columns_;
  std::vector<std::uint32_t> leaf_coords_;
  std::vector<double> values_;
};

/// \brief Thread-safe, lazily populated per-mode CSF store.
///
/// One instance is shared (via shared_ptr) by a SparseTensor and its
/// copies; SparseTensor::Csf() routes here. Each mode's index is built at
/// most once under a std::once_flag, so concurrent Get calls — e.g.
/// HOSVD's mode-parallel factor loop hitting different modes, or two
/// threads racing on the same mode — are safe and never build twice.
/// Mutating tensor operations swap in a fresh cache instead of clearing
/// this one, so copies still holding the old cache stay consistent.
class CsfCache {
 public:
  /// Empty cache with one slot per tensor mode.
  explicit CsfCache(std::size_t num_modes);

  /// The CSF index of `x` along `mode`, building it on first use. `x`
  /// must be the (sorted) tensor this cache is attached to.
  const CsfModeIndex& Get(const SparseTensor& x, std::size_t mode);

 private:
  struct Slot {
    std::once_flag once;
    std::optional<CsfModeIndex> index;
  };
  std::size_t num_modes_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace m2td::tensor

#endif  // M2TD_TENSOR_CSF_H_
