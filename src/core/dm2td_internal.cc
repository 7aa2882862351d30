#include "core/dm2td_internal.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "linalg/svd.h"
#include "tensor/matricize.h"

namespace m2td::core::dm2td_internal {

Status BuildGramsForSub(int kappa, const std::vector<std::uint64_t>& shape,
                        const std::vector<TensorCell>& cells,
                        std::vector<GramPiece>* out) {
  tensor::SparseTensor sub(shape);
  sub.Reserve(cells.size());
  for (const TensorCell& cell : cells) {
    sub.AppendEntry(cell.idx, cell.value);
  }
  sub.SortAndCoalesce();
  for (std::size_t m = 0; m < sub.num_modes(); ++m) {
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram, tensor::ModeGram(sub, m));
    out->push_back(GramPiece{kappa, m, std::move(gram)});
  }
  return Status::OK();
}

void JoinPivotGroup(std::uint64_t pivot_key,
                    const std::vector<TensorCell>& cells,
                    const JobGeometry& geometry, bool zero_join,
                    const std::vector<std::uint64_t>& cand1,
                    const std::vector<std::uint64_t>& cand2,
                    std::vector<JoinCell>* out) {
  std::unordered_map<std::uint64_t, double> lookup1, lookup2;
  for (const TensorCell& cell : cells) {
    if (cell.kappa == 1) {
      lookup1[SideKey(cell.idx, geometry.k, geometry.side1_dims)] =
          cell.value;
    } else {
      lookup2[SideKey(cell.idx, geometry.k, geometry.side2_dims)] =
          cell.value;
    }
  }
  std::vector<std::uint32_t> indices(geometry.num_modes);
  ScatterKey(pivot_key, geometry.pivot_dims, geometry.pivot_modes, &indices);
  auto emit_pair = [&](std::uint64_t key1, double v1, std::uint64_t key2,
                       double v2) {
    ScatterKey(key1, geometry.side1_dims, geometry.side1_modes, &indices);
    ScatterKey(key2, geometry.side2_dims, geometry.side2_modes, &indices);
    out->push_back(JoinCell{indices, 0.5 * (v1 + v2)});
  };
  if (!zero_join) {
    for (const auto& [key1, v1] : lookup1) {
      for (const auto& [key2, v2] : lookup2) emit_pair(key1, v1, key2, v2);
    }
    return;
  }
  for (std::uint64_t key1 : cand1) {
    const auto v1 = lookup1.find(key1);
    for (std::uint64_t key2 : cand2) {
      const auto v2 = lookup2.find(key2);
      if (v1 == lookup1.end() && v2 == lookup2.end()) continue;
      emit_pair(key1, v1 != lookup1.end() ? v1->second : 0.0, key2,
                v2 != lookup2.end() ? v2->second : 0.0);
    }
  }
}

void ContractFiber(std::uint64_t key,
                   std::vector<std::pair<std::uint32_t, double>>* fiber,
                   const linalg::Matrix& factor, std::size_t n,
                   const std::vector<std::uint64_t>& other_dims,
                   const std::vector<std::size_t>& other_modes,
                   std::size_t num_modes, std::vector<JoinCell>* out) {
  std::sort(fiber->begin(), fiber->end());
  const std::size_t rank = factor.cols();
  std::vector<double> acc(rank, 0.0);
  for (const auto& [i_n, v] : *fiber) {
    for (std::size_t j = 0; j < rank; ++j) {
      acc[j] += factor(i_n, j) * v;
    }
  }
  std::vector<std::uint32_t> indices(num_modes);
  ScatterKey(key, other_dims, other_modes, &indices);
  for (std::size_t j = 0; j < rank; ++j) {
    if (acc[j] == 0.0) continue;
    indices[n] = static_cast<std::uint32_t>(j);
    out->push_back(JoinCell{indices, acc[j]});
  }
}

Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::unordered_map<std::uint64_t, linalg::Matrix>& grams,
    const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const std::size_t num_modes = full_shape.size();
  const std::size_t k = partition.pivot_modes.size();
  auto gram_of = [&grams](int kappa,
                          std::size_t sub_mode) -> Result<linalg::Matrix*> {
    auto it = grams.find(static_cast<std::uint64_t>(kappa) * 64 + sub_mode);
    if (it == grams.end()) {
      return Status::Internal("missing Gram piece from phase 1");
    }
    return &it->second;
  };

  std::vector<linalg::Matrix> factors(num_modes);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    const std::size_t rank = static_cast<std::size_t>(
        std::min<std::uint64_t>(options.ranks[mode], full_shape[mode]));
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix * g1, gram_of(1, i));
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix * g2, gram_of(2, i));
    if (options.method == M2tdMethod::kConcat) {
      const linalg::Matrix sum = linalg::LinearCombination(1.0, *g1, 1.0, *g2);
      M2TD_ASSIGN_OR_RETURN(factors[mode],
                            linalg::LeftSingularVectorsFromGram(sum, rank));
    } else {
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix u1,
                            linalg::LeftSingularVectorsFromGram(*g1, rank));
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix u2,
                            linalg::LeftSingularVectorsFromGram(*g2, rank));
      if (options.method == M2tdMethod::kAvg) {
        factors[mode] = linalg::LinearCombination(0.5, u1, 0.5, u2);
      } else if (options.method == M2tdMethod::kWeighted) {
        M2TD_ASSIGN_OR_RETURN(factors[mode], RowWeightedBlend(u1, u2));
      } else {
        M2TD_ASSIGN_OR_RETURN(factors[mode], RowSelect(u1, u2));
      }
    }
  }
  for (int side = 1; side <= 2; ++side) {
    const std::vector<std::size_t>& side_modes =
        (side == 1) ? partition.side1_modes : partition.side2_modes;
    for (std::size_t i = 0; i < side_modes.size(); ++i) {
      const std::size_t mode = side_modes[i];
      const std::size_t rank = static_cast<std::size_t>(
          std::min<std::uint64_t>(options.ranks[mode], full_shape[mode]));
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix * gram, gram_of(side, k + i));
      M2TD_ASSIGN_OR_RETURN(factors[mode],
                            linalg::LeftSingularVectorsFromGram(*gram, rank));
    }
  }
  return factors;
}

Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options) {
  const std::size_t num_modes = full_shape.size();
  if (partition.NumModes() != num_modes) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  if (options.ranks.size() != num_modes) {
    return Status::InvalidArgument("one rank per original mode required");
  }
  if (!subs.x1.IsSorted() || !subs.x2.IsSorted()) {
    return Status::InvalidArgument("DM2TD requires coalesced sub-tensors");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.backend == DistBackend::kProcess && options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::OK();
}

void GatherZeroJoinCandidates(const std::vector<TensorCell>& all_cells,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2) {
  std::unordered_set<std::uint64_t> set1, set2;
  for (const TensorCell& cell : all_cells) {
    if (cell.kappa == 1) {
      set1.insert(SideKey(cell.idx, geometry.k, geometry.side1_dims));
    } else {
      set2.insert(SideKey(cell.idx, geometry.k, geometry.side2_dims));
    }
  }
  cand1->assign(set1.begin(), set1.end());
  cand2->assign(set2.begin(), set2.end());
  std::sort(cand1->begin(), cand1->end());
  std::sort(cand2->begin(), cand2->end());
}

}  // namespace m2td::core::dm2td_internal
