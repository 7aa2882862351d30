#ifndef M2TD_TENSOR_GRAM_GROUPS_H_
#define M2TD_TENSOR_GRAM_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "parallel/parallel_for.h"

namespace m2td::tensor::internal {

/// Shared partial-Gram scaffolding for ModeGram and its COO test oracle.
/// `group_body(acc, group_begin, group_end)` accumulates one column
/// group's pair contributions into `acc`; this wrapper owns the
/// chunk/merge/mirror structure so each variant only differs in its
/// inner loop.
///
/// Large inputs accumulate per-chunk partial Grams (chunks split at group
/// boundaries, never inside a group), merged in ascending chunk order.
/// The chunking is a pure function of the group count, so the result is
/// bit-identical across thread counts. The partial matrices cost
/// O(chunks * n^2) memory; for wide modes or few groups the serial
/// single-matrix path is used instead. The choice must NOT depend on the
/// pool size: chunked merge reassociates the sums, so gating it on the
/// thread count would break bit-identity across --threads values.
template <typename GroupBody>
void AccumulateGramGroups(linalg::Matrix* gram, std::size_t n,
                          const std::vector<std::uint64_t>& group_offsets,
                          const GroupBody& group_body) {
  const std::uint64_t num_groups = group_offsets.size() - 1;
  auto accumulate_groups = [&](linalg::Matrix& acc, std::uint64_t gb,
                               std::uint64_t ge) {
    for (std::uint64_t g = gb; g < ge; ++g) {
      group_body(acc, group_offsets[g], group_offsets[g + 1]);
    }
  };
  const bool use_partials = num_groups >= 64 && n <= 512;
  if (use_partials) {
    *gram = parallel::ParallelReduce<linalg::Matrix>(
        0, num_groups, 0, std::move(*gram),
        [&](std::uint64_t gb, std::uint64_t ge) {
          linalg::Matrix partial(n, n);
          accumulate_groups(partial, gb, ge);
          return partial;
        },
        [n](linalg::Matrix& acc, linalg::Matrix&& partial) {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i; j < n; ++j) {
              acc(i, j) += partial(i, j);
            }
          }
        },
        "mode_gram_partials");
  } else {
    accumulate_groups(*gram, 0, num_groups);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      (*gram)(j, i) = (*gram)(i, j);
    }
  }
}

}  // namespace m2td::tensor::internal

#endif  // M2TD_TENSOR_GRAM_GROUPS_H_
