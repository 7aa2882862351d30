#ifndef M2TD_TESTS_ORACLES_JE_STITCH_APPEND_H_
#define M2TD_TESTS_ORACLES_JE_STITCH_APPEND_H_

#include <cstdint>
#include <vector>

#include "core/je_stitch.h"
#include "core/pf_partition.h"
#include "oracles/sort_coalesce.h"

namespace m2td::core {

/// \brief Append-based reference for JeStitch: hash-groups each side's
/// entries by pivot key, decodes every join cell's coordinates from the
/// pivot and side keys (per-entry div/mod), appends it with AppendEntry,
/// and orders the result with the comparator oracle
/// (tensor::SortAndCoalesceComparator, kMean).
///
/// Test oracle only. JeStitch must return exactly these arrays, for both
/// StitchOptions::zero_join values. Inputs must satisfy JeStitch's
/// preconditions (aborts otherwise).
tensor::CooArrays JeStitchAppend(const SubEnsembles& subs,
                                 const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const StitchOptions& options);

}  // namespace m2td::core

#endif  // M2TD_TESTS_ORACLES_JE_STITCH_APPEND_H_
