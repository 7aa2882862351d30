#ifndef M2TD_TESTS_ORACLES_SORT_COALESCE_H_
#define M2TD_TESTS_ORACLES_SORT_COALESCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/sparse_tensor.h"

namespace m2td::tensor {

/// A tensor's stored entries as plain arrays, in entry order.
struct CooArrays {
  std::vector<std::vector<std::uint32_t>> indices;  // one array per mode
  std::vector<double> values;

  bool operator==(const CooArrays&) const = default;
};

/// The stored entries of `x`, in its current order.
CooArrays ArraysOf(const SparseTensor& x);

/// \brief Comparator reference for SparseTensor::SortAndCoalesce: an
/// indirect std::stable_sort of the entry ids with a lexicographic
/// coordinate comparator, then the merge pass (duplicates summed in
/// append order; kMean divides by the run length).
///
/// Test oracle only. SortAndCoalesce must return exactly these arrays.
CooArrays SortAndCoalesceComparator(const SparseTensor& x,
                                    CoalescePolicy policy);

/// \brief Comparator reference for CsfModeIndex::Build's fiber order: the
/// entry ids of the sorted, coalesced tensor `x` ordered by
/// (MatricizationColumns(mode)[e], leaf coordinate) with std::sort (the
/// pairs are unique, so the order is total).
///
/// Test oracle only.
std::vector<std::uint64_t> CsfFiberOrderComparator(const SparseTensor& x,
                                                   std::size_t mode);

}  // namespace m2td::tensor

#endif  // M2TD_TESTS_ORACLES_SORT_COALESCE_H_
