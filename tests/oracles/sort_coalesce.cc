#include "oracles/sort_coalesce.h"

#include <algorithm>
#include <numeric>

namespace m2td::tensor {

CooArrays ArraysOf(const SparseTensor& x) {
  CooArrays out;
  for (std::size_t m = 0; m < x.num_modes(); ++m) {
    out.indices.push_back(x.IndexArray(m));
  }
  out.values = x.Values();
  return out;
}

CooArrays SortAndCoalesceComparator(const SparseTensor& x,
                                    CoalescePolicy policy) {
  const std::size_t modes = x.num_modes();
  const std::uint64_t n = x.NumNonZeros();
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     for (std::size_t m = 0; m < modes; ++m) {
                       if (x.Index(m, a) != x.Index(m, b)) {
                         return x.Index(m, a) < x.Index(m, b);
                       }
                     }
                     return false;
                   });
  auto same_coords = [&](std::uint64_t a, std::uint64_t b) {
    for (std::size_t m = 0; m < modes; ++m) {
      if (x.Index(m, a) != x.Index(m, b)) return false;
    }
    return true;
  };

  CooArrays out;
  out.indices.resize(modes);
  std::vector<std::uint64_t> run_counts;
  for (std::uint64_t pos = 0; pos < n; ++pos) {
    const std::uint64_t e = order[pos];
    if (pos > 0 && same_coords(e, order[pos - 1])) {
      out.values.back() += x.Value(e);
      ++run_counts.back();
    } else {
      for (std::size_t m = 0; m < modes; ++m) {
        out.indices[m].push_back(x.Index(m, e));
      }
      out.values.push_back(x.Value(e));
      run_counts.push_back(1);
    }
  }
  if (policy == CoalescePolicy::kMean) {
    for (std::size_t i = 0; i < out.values.size(); ++i) {
      out.values[i] /= static_cast<double>(run_counts[i]);
    }
  }
  return out;
}

std::vector<std::uint64_t> CsfFiberOrderComparator(const SparseTensor& x,
                                                   std::size_t mode) {
  const std::uint64_t n = x.NumNonZeros();
  const std::vector<std::uint64_t> columns = x.MatricizationColumns(mode);
  const std::vector<std::uint32_t>& leaf = x.IndexArray(mode);
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](std::uint64_t a, std::uint64_t b) {
    if (columns[a] != columns[b]) return columns[a] < columns[b];
    return leaf[a] < leaf[b];
  });
  return perm;
}

}  // namespace m2td::tensor
