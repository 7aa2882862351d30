#ifndef M2TD_CORE_DM2TD_INTERNAL_H_
#define M2TD_CORE_DM2TD_INTERNAL_H_

// Shared building blocks of the two D-M2TD execution backends. The
// in-process thread backend (dm2td.cc) and the multi-process task bodies
// (dm2td_tasks.cc) both compute through these functions, so the backends
// agree bit for bit. Every group body sees its records in the global input
// order on both backends — Gram sub-tensors are coalesced, and a pivot
// group's cells arrive in input order however they were sharded — and the
// per-pivot partial cores are summed in ascending pivot key, so results
// never depend on worker count, shard count, kill schedule, or the order
// reducers emit their outputs.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dm2td.h"
#include "core/pf_partition.h"
#include "linalg/matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace m2td::core::dm2td_internal {

/// One stored cell of a (sub-)tensor shipped through MapReduce.
struct TensorCell {
  int kappa = 0;  // 1 or 2: owning sub-tensor
  std::vector<std::uint32_t> idx;
  double value = 0.0;
};

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

inline std::uint64_t PivotKey(const std::vector<std::uint32_t>& idx,
                              const std::vector<std::uint64_t>& pivot_dims) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < pivot_dims.size(); ++i) {
    key = key * pivot_dims[i] + idx[i];
  }
  return key;
}

inline std::uint64_t SideKey(const std::vector<std::uint32_t>& idx,
                             std::size_t k,
                             const std::vector<std::uint64_t>& side_dims) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < side_dims.size(); ++i) {
    key = key * side_dims[i] + idx[k + i];
  }
  return key;
}

/// Inverse of PivotKey/SideKey: the per-mode indices of a row-major key.
inline void DecodeKey(std::uint64_t key,
                      const std::vector<std::uint64_t>& dims,
                      std::uint32_t* out) {
  for (std::size_t i = dims.size(); i-- > 0;) {
    out[i] = static_cast<std::uint32_t>(key % dims[i]);
    key /= dims[i];
  }
}

/// Contiguous split m of [0, size) into `splits` ranges: the map input of
/// map task m on both backends, so concatenating the splits in task order
/// reproduces the global input order.
inline std::pair<std::size_t, std::size_t> SplitRange(std::size_t size,
                                                      int splits, int m) {
  const std::size_t begin =
      size * static_cast<std::size_t>(m) / static_cast<std::size_t>(splits);
  const std::size_t end = size * (static_cast<std::size_t>(m) + 1) /
                          static_cast<std::size_t>(splits);
  return {begin, end};
}

/// Every stored cell of both sub-tensors, x1's first — the job input of
/// both phases, whose order every group body sees.
std::vector<TensorCell> CollectAllCells(const SubEnsembles& subs);

/// The pivot key of a cell, IOError when it has fewer indices than there
/// are pivot modes (a decoded cell of the process backend can).
Result<std::uint64_t> CheckedPivotKey(const TensorCell& cell,
                                      const JobGeometry& geometry);

/// Phase-1 reduce body of both backends: groups `cells` by sub-tensor
/// (kappa), in input order, and appends each sub-tensor's per-mode Gram
/// pieces, in ascending kappa. Each group is built into a sparse tensor
/// of shape `shape1` (kappa 1) or `shape2` and coalesced, so the Grams do
/// not depend on the order the cells arrive in; the cells of one
/// sub-tensor must have unique indices (they come from a coalesced one).
Status ReduceGramGroups(std::vector<TensorCell> cells,
                        const std::vector<std::uint64_t>& shape1,
                        const std::vector<std::uint64_t>& shape2,
                        std::vector<GramPiece>* out);

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

  /// Appends pivot `pivot_key`'s partial core, built from its group, whose
  /// cells must arrive in global input order (both backends guarantee
  /// this) so the side sums are reproducible. Appends nothing when the
  /// group joins no cells. IOError for a cell of the wrong arity or out of
  /// range.
  Status Build(std::uint64_t pivot_key, const std::vector<TensorCell>& cells,
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

/// Phase-2 reduce body of both backends: groups `cells` by pivot key,
/// preserving input order within each group, and appends each group's
/// partial core (PivotCoreBuilder::Build) in ascending pivot key. IOError
/// for a malformed cell.
Status ReducePivotGroups(const PivotCoreBuilder& builder,
                         const JobGeometry& geometry,
                         std::vector<TensorCell> cells,
                         std::vector<PartialCore>* out);

/// Sums the partial cores in ascending pivot key — the one canonical order
/// on every backend — into the dense core whose mode-n extent is
/// factors[n].cols(), and their join-cell counts into `*join_nnz`. IOError
/// when a partial core has the wrong size.
Result<tensor::DenseTensor> SumPartialCores(
    std::vector<PartialCore>* parts, const std::vector<linalg::Matrix>& factors,
    std::uint64_t* join_nnz);

/// Driver-side factor assembly from the phase-1 Gram pieces. Shared by
/// both backends so factors are computed by literally the same code path.
Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::vector<GramPiece> pieces,
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, const DM2tdOptions& options);

/// Argument validation shared by both backends.
Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options);

/// Zero-join candidate side-key sets, gathered globally (sorted).
void GatherZeroJoinCandidates(const std::vector<TensorCell>& all_cells,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2);

}  // namespace m2td::core::dm2td_internal

#endif  // M2TD_CORE_DM2TD_INTERNAL_H_
