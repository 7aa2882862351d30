#ifndef M2TD_CORE_DM2TD_INTERNAL_H_
#define M2TD_CORE_DM2TD_INTERNAL_H_

// Shared building blocks of the M2TD paths. Both D-M2TD backends compute
// through these functions, so they agree bit for bit: the thread backend
// (dm2td.cc) runs the phase bodies in place on row ranges of the coalesced
// sub-tensors, and the multi-process task bodies (dm2td_tasks.cc) run them
// on shuffled ShardSlices. In-memory M2TD (m2td.cc) shares the factor stage
// (AppendSubTensorGrams, AssembleFactors). Every group body sees its
// records in the global input order on both backends — Gram sub-tensors
// are coalesced, and a pivot group's cells arrive in input order however
// they were sharded — and the per-pivot partial cores are summed in
// ascending pivot key, so results never depend on worker count, shard
// count, kill schedule, or the order reducers emit their outputs.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dm2td.h"
#include "core/pf_partition.h"
#include "linalg/matrix.h"
#include "linalg/rsvd.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::core::dm2td_internal {

/// The process backend's cell format: an x1 slice and an x2 slice in the
/// sub-tensors' own column layout (one uint32 column per mode plus a value
/// column, shapes shape1/shape2), rows in input order. A map task's input
/// split, its output for one shard, a shuffle segment and a reduce task's
/// input are each one of these.
struct ShardSlices {
  tensor::SparseTensor x1, x2;
};

/// Rows [first, second) of a sub-tensor or slice.
using Rows = std::pair<std::uint64_t, std::uint64_t>;

inline Rows AllRows(const tensor::SparseTensor& t) {
  return {0, t.NumNonZeros()};
}

/// Phase-1 reducer output: the Gram matrix of one sub-tensor mode.
struct GramPiece {
  int kappa = 0;
  std::size_t sub_mode = 0;
  linalg::Matrix gram;
};

/// Phase-2 reducer output: one pivot configuration's share of the core.
/// `values` holds prod(ranks) partial-core entries in the core's row-major
/// order; `join_cells` counts the join cells the pivot stands for.
struct PartialCore {
  std::uint64_t pivot_key = 0;
  std::uint64_t join_cells = 0;
  std::vector<double> values;
};

/// Mode geometry shared by every phase: the pivot/side split of the
/// original modes and their extents.
struct JobGeometry {
  std::size_t num_modes = 0;
  std::size_t k = 0;  // number of pivot modes
  std::vector<std::size_t> pivot_modes, side1_modes, side2_modes;
  std::vector<std::uint64_t> pivot_dims, side1_dims, side2_dims;
};

inline std::vector<std::uint64_t> ModeDims(
    const std::vector<std::uint64_t>& full_shape,
    const std::vector<std::size_t>& modes) {
  std::vector<std::uint64_t> dims;
  dims.reserve(modes.size());
  for (std::size_t m : modes) dims.push_back(full_shape[m]);
  return dims;
}

inline JobGeometry MakeGeometry(const PfPartition& partition,
                                const std::vector<std::uint64_t>& full_shape) {
  JobGeometry g;
  g.num_modes = full_shape.size();
  g.k = partition.pivot_modes.size();
  g.pivot_modes = partition.pivot_modes;
  g.side1_modes = partition.side1_modes;
  g.side2_modes = partition.side2_modes;
  g.pivot_dims = ModeDims(full_shape, partition.pivot_modes);
  g.side1_dims = ModeDims(full_shape, partition.side1_modes);
  g.side2_dims = ModeDims(full_shape, partition.side2_modes);
  return g;
}

/// Row-major key of row `e` of `t` over its modes [first, first +
/// dims.size()): the pivot key (first = 0, the pivot extents) or a side key
/// (first = k, that side's extents).
inline std::uint64_t RowKey(const tensor::SparseTensor& t, std::uint64_t e,
                            std::size_t first,
                            const std::vector<std::uint64_t>& dims) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    key = key * dims[i] + t.Index(first + i, e);
  }
  return key;
}

/// Inverse of RowKey: the per-mode indices of a row-major key.
inline void DecodeKey(std::uint64_t key,
                      const std::vector<std::uint64_t>& dims,
                      std::uint32_t* out) {
  for (std::size_t i = dims.size(); i-- > 0;) {
    out[i] = static_cast<std::uint32_t>(key % dims[i]);
    key /= dims[i];
  }
}

/// Contiguous split m of [0, size) into `splits` ranges: the input of the
/// process backend's map task m, so concatenating the splits in task order
/// reproduces the global input order.
inline std::pair<std::size_t, std::size_t> SplitRange(std::size_t size,
                                                      int splits, int m) {
  const std::size_t begin =
      size * static_cast<std::size_t>(m) / static_cast<std::size_t>(splits);
  const std::size_t end = size * (static_cast<std::size_t>(m) + 1) /
                          static_cast<std::size_t>(splits);
  return {begin, end};
}

/// Map routing of the process backend: sends rows `rows1` of `x1` and
/// `rows2` of `x2` to shard side - 1 (mod `shards`) in phase 1 and to shard
/// pivot key % `shards` in phase 2. Returns one ShardSlices per shard, each
/// side's rows in input order; they take the shapes of `x1` and `x2`.
/// Routing is a function of the row alone, so it does not depend on split
/// boundaries or worker count.
Result<std::vector<ShardSlices>> RouteSplit(int phase,
                                            const JobGeometry& geometry,
                                            const tensor::SparseTensor& x1,
                                            Rows rows1,
                                            const tensor::SparseTensor& x2,
                                            Rows rows2, std::size_t shards);

/// Reduce-input assembly of the process backend: one shard's slices from
/// every map task, in map-task order, concatenated side by side — so each
/// side's rows arrive in global input order. `parts` share their shapes;
/// IOError when there are none.
Result<ShardSlices> ConcatSlices(std::vector<ShardSlices> parts);

/// Appends the per-mode Gram pieces of coalesced sub-tensor `sub` (side
/// `kappa`), mode by mode: phase 1 of every M2TD path.
Status AppendSubTensorGrams(int kappa, const tensor::SparseTensor& sub,
                            std::vector<GramPiece>* out);

/// Phase-1 reduce body of the process backend: coalesces each non-empty
/// side of `input` (a no-op on the coalesced sub-tensors' rows) and
/// appends its Gram pieces, x1's first.
Status ReduceGramGroups(ShardSlices input, std::vector<GramPiece>* out);

/// Phase-2 reducer body: recovers one pivot group's core contribution
/// without forming its join slice. JE-stitching makes the slice at pivot
/// p separable, J_p = 1/2 (x1_p (x) m2_p + m1_p (x) x2_p), where m1_p and
/// m2_p are the member indicators — or, under zero-join, the global
/// candidate indicators. Its core contribution is therefore
///
///   w_p (x) 1/2 (A_p (x) B_p + C_p (x) D_p),
///
/// with w_p the Kronecker row of the pivot factors at p, A_p / D_p the
/// value-weighted sums of the side-1 / side-2 factor Kronecker rows over
/// the group's cells, and C_p / B_p the indicator sums (over the group's
/// cells, or over the candidate sets under zero-join, where they are the
/// same for every p and computed once). See docs/ALGORITHMS.md.
class PivotCoreBuilder {
 public:
  /// `factors` holds one factor per original mode; `cand1`/`cand2` are the
  /// zero-join candidate side keys (ignored without zero-join). Factor
  /// extents and candidate keys are checked against the geometry, since
  /// the process backend reads both from job files.
  static Result<PivotCoreBuilder> Create(
      const JobGeometry& geometry, const std::vector<linalg::Matrix>& factors,
      bool zero_join, const std::vector<std::uint64_t>& cand1,
      const std::vector<std::uint64_t>& cand2);

  /// Appends pivot `pivot_key`'s partial core, built from its group: rows
  /// `rows1` of `x1` and `rows2` of `x2`, each in global input order (both
  /// backends guarantee this) so the side sums are reproducible. Appends
  /// nothing when the group joins no cells.
  void Build(std::uint64_t pivot_key, const tensor::SparseTensor& x1,
             Rows rows1, const tensor::SparseTensor& x2, Rows rows2,
             std::vector<PartialCore>* out) const;

 private:
  /// The pivot modes or one side's modes: their factors and extents, the
  /// core offset of each rank tuple (row-major over the group, the
  /// Kronecker row order) and, for a side under zero-join, the candidate
  /// count and indicator sum.
  struct ModeGroup {
    std::vector<linalg::Matrix> factors;
    std::vector<std::uint64_t> dims, offsets;
    std::uint64_t num_cand = 0;
    std::vector<double> cand_sum;

    /// Overwrites `row` with the Kronecker product of row idx[i] of
    /// factors[i], the first factor varying slowest.
    void KronRow(const std::uint32_t* idx, std::vector<double>* row) const;
  };

  std::size_t k_ = 0;
  bool zero_join_ = false;
  std::uint64_t core_size_ = 0;
  ModeGroup pivot_, side1_, side2_;
};

/// Phase-2 reduce body of both backends, over rows `rows1` of `x1` and
/// `rows2` of `x2`. The sub-tensors are coalesced with their pivot modes
/// leading, so each side's rows arrive in ascending pivot key and a pivot
/// group is a run of rows on each side; merges the x1 and x2 runs and
/// appends each group's partial core (PivotCoreBuilder::Build) in
/// ascending pivot key. `x1` and `x2` have the sub-tensors' shapes
/// (ValidateDm2tdArgs and dm2td_tasks::RunDistTask check them); IOError
/// when a side's keys descend.
Status ReducePivotGroups(const PivotCoreBuilder& builder,
                         const JobGeometry& geometry,
                         const tensor::SparseTensor& x1, Rows rows1,
                         const tensor::SparseTensor& x2, Rows rows2,
                         std::vector<PartialCore>* out);

/// Sums the partial cores in ascending pivot key — the one canonical order
/// on every backend — into the dense core whose mode-n extent is
/// factors[n].cols(), and their join-cell counts into `*join_nnz`. IOError
/// when a partial core has the wrong size.
Result<tensor::DenseTensor> SumPartialCores(
    std::vector<PartialCore>* parts, const std::vector<linalg::Matrix>& factors,
    std::uint64_t* join_nnz);

/// The factor stage of every M2TD path: one factor per original mode from
/// the phase-1 Gram pieces. A pivot mode's factor combines the two
/// sub-tensors' Grams per `method` (CombinePivotFactor, under
/// init.ForMode(mode) and init.ForMode(mode + num_modes)); a side mode's
/// comes from its own sub-tensor's Gram under init.ForMode(mode +
/// side * num_modes), side 0 for x1. Ranks are clamped to the mode length.
/// Internal when a piece is missing.
Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::vector<GramPiece> pieces, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, M2tdMethod method,
    const std::vector<std::uint64_t>& ranks,
    const linalg::GramFactorOptions& init);

/// Argument validation of both backends: ValidateM2tdArgs, plus positive
/// worker and shard counts.
Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options);

/// Zero-join candidate side-key sets, gathered globally (sorted).
void GatherZeroJoinCandidates(const SubEnsembles& subs,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2);

}  // namespace m2td::core::dm2td_internal

#endif  // M2TD_CORE_DM2TD_INTERNAL_H_
