#ifndef M2TD_CORE_DM2TD_INTERNAL_H_
#define M2TD_CORE_DM2TD_INTERNAL_H_

// Shared building blocks of the two D-M2TD execution backends. The
// in-process thread engine (dm2td.cc) and the multi-process task bodies
// (dm2td_tasks.cc) both compute through these functions, so the backends
// agree bit for bit. Every group body is independent of the order its
// records arrive in — Gram sub-tensors are coalesced, phase-2 groups see
// the global input order on both backends, and ContractFiber orders its
// own fiber — so results never depend on worker count, shard count,
// kill schedule, or the order reducers emit their outputs.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/dm2td.h"
#include "core/pf_partition.h"
#include "linalg/matrix.h"
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

/// A cell of the join tensor (and of the phase-3 intermediates), in
/// original mode order.
struct JoinCell {
  std::vector<std::uint32_t> idx;
  double value = 0.0;
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

inline void ScatterKey(std::uint64_t key,
                       const std::vector<std::uint64_t>& dims,
                       const std::vector<std::size_t>& modes,
                       std::vector<std::uint32_t>* out) {
  for (std::size_t i = dims.size(); i-- > 0;) {
    (*out)[modes[i]] = static_cast<std::uint32_t>(key % dims[i]);
    key /= dims[i];
  }
}

inline std::vector<TensorCell> CollectCells(const tensor::SparseTensor& sub,
                                            int kappa) {
  std::vector<TensorCell> cells;
  cells.reserve(sub.NumNonZeros());
  const std::size_t modes = sub.num_modes();
  for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
    TensorCell cell;
    cell.kappa = kappa;
    cell.idx.resize(modes);
    for (std::size_t m = 0; m < modes; ++m) cell.idx[m] = sub.Index(m, e);
    cell.value = sub.Value(e);
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// Phase-1 reducer body: builds one sub-tensor from its cells and emits
/// the per-mode Gram pieces. Input cells must have unique indices (they
/// come from a coalesced sub-tensor), so SortAndCoalesce canonicalizes
/// the entry order regardless of arrival order.
Status BuildGramsForSub(int kappa, const std::vector<std::uint64_t>& shape,
                        const std::vector<TensorCell>& cells,
                        std::vector<GramPiece>* out);

/// Phase-2 reducer body: joins one pivot group. `cells` must arrive in
/// global input order (both backends guarantee this) so the join output
/// sequence is reproducible. Appends to `out`.
void JoinPivotGroup(std::uint64_t pivot_key,
                    const std::vector<TensorCell>& cells,
                    const JobGeometry& geometry, bool zero_join,
                    const std::vector<std::uint64_t>& cand1,
                    const std::vector<std::uint64_t>& cand2,
                    std::vector<JoinCell>* out);

/// Phase-3 fiber key of a cell (given by its index array `idx`, one
/// entry per mode of `current_shape`) for mode `n`: the row-major rank
/// over all modes except `n`.
inline std::uint64_t Phase3FiberKey(
    const std::uint32_t* idx, std::size_t n,
    const std::vector<std::uint64_t>& current_shape) {
  std::uint64_t key = 0;
  for (std::size_t m = 0; m < current_shape.size(); ++m) {
    if (m == n) continue;
    key = key * current_shape[m] + idx[m];
  }
  return key;
}

inline std::uint64_t Phase3FiberKey(
    const JoinCell& cell, std::size_t n,
    const std::vector<std::uint64_t>& current_shape) {
  return Phase3FiberKey(cell.idx.data(), n, current_shape);
}

/// Phase-3 reducer body: contracts one fiber (all (i_n, v) pairs sharing
/// `key`) with `factor`, appending the non-zero results. The fiber may
/// arrive in any order: it is first sorted by ascending i_n (unique within
/// a fiber, since cells have unique index vectors), so the accumulation
/// order — and hence every bit of the result — is canonical.
void ContractFiber(std::uint64_t key,
                   std::vector<std::pair<std::uint32_t, double>>* fiber,
                   const linalg::Matrix& factor, std::size_t n,
                   const std::vector<std::uint64_t>& other_dims,
                   const std::vector<std::size_t>& other_modes,
                   std::size_t num_modes, std::vector<JoinCell>* out);

/// Driver-side factor assembly from the phase-1 Gram pieces (keyed
/// kappa * 64 + sub_mode). Shared by both backends so factors are
/// computed by literally the same code path.
Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::unordered_map<std::uint64_t, linalg::Matrix>& grams,
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
