#include "oracles/je_stitch_append.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace m2td::core {

namespace {

struct SideEntry {
  std::uint64_t side_key;
  double value;
};

using PivotGroups =
    std::unordered_map<std::uint64_t, std::vector<SideEntry>>;

std::vector<std::uint64_t> ModeDims(
    const std::vector<std::uint64_t>& full_shape,
    const std::vector<std::size_t>& modes) {
  std::vector<std::uint64_t> dims;
  for (std::size_t m : modes) dims.push_back(full_shape[m]);
  return dims;
}

PivotGroups GroupByPivot(const tensor::SparseTensor& sub, std::size_t k) {
  PivotGroups groups;
  for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
    std::uint64_t pivot_key = 0;
    for (std::size_t m = 0; m < k; ++m) {
      pivot_key = pivot_key * sub.dim(m) + sub.Index(m, e);
    }
    std::uint64_t side_key = 0;
    for (std::size_t m = k; m < sub.num_modes(); ++m) {
      side_key = side_key * sub.dim(m) + sub.Index(m, e);
    }
    groups[pivot_key].push_back(SideEntry{side_key, sub.Value(e)});
  }
  return groups;
}

void ScatterKey(std::uint64_t key, const std::vector<std::uint64_t>& dims,
                const std::vector<std::size_t>& modes,
                std::vector<std::uint32_t>* out) {
  for (std::size_t i = dims.size(); i-- > 0;) {
    (*out)[modes[i]] = static_cast<std::uint32_t>(key % dims[i]);
    key /= dims[i];
  }
}

}  // namespace

tensor::CooArrays JeStitchAppend(const SubEnsembles& subs,
                                 const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const StitchOptions& options) {
  const std::size_t k = partition.pivot_modes.size();
  const std::vector<std::uint64_t> pivot_dims =
      ModeDims(full_shape, partition.pivot_modes);
  const std::vector<std::uint64_t> side1_dims =
      ModeDims(full_shape, partition.side1_modes);
  const std::vector<std::uint64_t> side2_dims =
      ModeDims(full_shape, partition.side2_modes);
  const PivotGroups groups1 = GroupByPivot(subs.x1, k);
  const PivotGroups groups2 = GroupByPivot(subs.x2, k);

  tensor::SparseTensor join(full_shape);
  std::vector<std::uint32_t> indices(full_shape.size());
  if (!options.zero_join) {
    for (const auto& [pivot_key, list1] : groups1) {
      auto it2 = groups2.find(pivot_key);
      if (it2 == groups2.end()) continue;
      ScatterKey(pivot_key, pivot_dims, partition.pivot_modes, &indices);
      for (const SideEntry& e1 : list1) {
        ScatterKey(e1.side_key, side1_dims, partition.side1_modes, &indices);
        for (const SideEntry& e2 : it2->second) {
          ScatterKey(e2.side_key, side2_dims, partition.side2_modes,
                     &indices);
          join.AppendEntry(indices, 0.5 * (e1.value + e2.value));
        }
      }
    }
    return tensor::SortAndCoalesceComparator(join,
                                             tensor::CoalescePolicy::kMean);
  }

  std::unordered_set<std::uint64_t> cand1_set, cand2_set, pivot_union;
  for (const auto& [pivot_key, list] : groups1) {
    pivot_union.insert(pivot_key);
    for (const SideEntry& e : list) cand1_set.insert(e.side_key);
  }
  for (const auto& [pivot_key, list] : groups2) {
    pivot_union.insert(pivot_key);
    for (const SideEntry& e : list) cand2_set.insert(e.side_key);
  }
  std::vector<std::uint64_t> cand1(cand1_set.begin(), cand1_set.end());
  std::vector<std::uint64_t> cand2(cand2_set.begin(), cand2_set.end());
  std::sort(cand1.begin(), cand1.end());
  std::sort(cand2.begin(), cand2.end());
  for (std::uint64_t pivot_key : pivot_union) {
    ScatterKey(pivot_key, pivot_dims, partition.pivot_modes, &indices);
    std::unordered_map<std::uint64_t, double> lookup1, lookup2;
    if (auto it = groups1.find(pivot_key); it != groups1.end()) {
      for (const SideEntry& e : it->second) lookup1[e.side_key] = e.value;
    }
    if (auto it = groups2.find(pivot_key); it != groups2.end()) {
      for (const SideEntry& e : it->second) lookup2[e.side_key] = e.value;
    }
    for (std::uint64_t key1 : cand1) {
      const auto v1 = lookup1.find(key1);
      ScatterKey(key1, side1_dims, partition.side1_modes, &indices);
      for (std::uint64_t key2 : cand2) {
        const auto v2 = lookup2.find(key2);
        if (v1 == lookup1.end() && v2 == lookup2.end()) continue;
        const double a = (v1 != lookup1.end()) ? v1->second : 0.0;
        const double b = (v2 != lookup2.end()) ? v2->second : 0.0;
        ScatterKey(key2, side2_dims, partition.side2_modes, &indices);
        join.AppendEntry(indices, 0.5 * (a + b));
      }
    }
  }
  return tensor::SortAndCoalesceComparator(join,
                                           tensor::CoalescePolicy::kMean);
}

}  // namespace m2td::core
