#ifndef M2TD_TENSOR_RADIX_ORDER_H_
#define M2TD_TENSOR_RADIX_ORDER_H_

// Internal: the stable LSD radix ordering shared by
// SparseTensor::SortAndCoalesce and CsfModeIndex::Build. Not part of the
// public tensor API.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace m2td::tensor::internal {

/// One sort key: a per-entry uint32 coordinate array (indexed by entry id)
/// and the mode length bounding it (every value is < dim).
struct RadixKey {
  const std::uint32_t* values;
  std::uint64_t dim;
};

/// \brief Stably reorders `perm` (entry ids) by `keys`, keys[0] most
/// significant.
///
/// On return, perm lists its entries in lexicographic order of
/// (keys[0][e], keys[1][e], ...); entries with equal keys keep their
/// incoming relative order. Classic LSD radix over 16-bit digits, least
/// significant key first:
///   - keys of dim 1 are skipped (always zero);
///   - runs of consecutive keys whose dims multiply to at most 2^16 fuse
///     into one row-major digit, so a 5-mode tensor of 16-long modes
///     takes two passes, not five (for n < 2^16 the fusion stops at the
///     next power of two >= n, floored at 2^8, so a small input never
///     pays for a histogram much larger than itself);
///   - a key longer than 2^16 takes a low- and a high-digit pass, the
///     high one only over the digits its dim can reach;
///   - a pass whose digit is the same for every entry is skipped after
///     its histogram.
/// Each pass first computes its digit for every entry id in one
/// sequential sweep of the key arrays (so the scatter reads one 16-bit
/// digit per entry instead of gathering every fused key), and sizes its
/// histogram to the digit's range, so tiny tensors pay for tiny
/// histograms. Cost is O(n) per pass with at most 2 passes per key;
/// transient memory is a second permutation buffer plus one 16-bit digit
/// per entry.
///
/// `Index` is the permutation element type: std::uint32_t when
/// perm->size() < 2^32 (half the memory of 64-bit ids), else
/// std::uint64_t.
template <typename Index>
void StableRadixOrder(const std::vector<RadixKey>& keys,
                      std::vector<Index>* perm) {
  constexpr std::uint64_t kDigitRange = std::uint64_t{1} << 16;
  const std::size_t n = perm->size();
  if (n < 2) return;
  const std::uint64_t fuse_limit = std::clamp<std::uint64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(n)), 256, kDigitRange);
  std::vector<Index> perm_next(n);
  std::vector<std::uint16_t> digit(n);  // by entry id
  std::vector<Index> counts;

  // One counting-sort pass of perm on digit[e], whose values are < range.
  auto pass = [&](std::uint64_t range) {
    counts.assign(static_cast<std::size_t>(range), 0);
    for (std::size_t e = 0; e < n; ++e) ++counts[digit[e]];
    Index sum = 0;
    for (Index& c : counts) {
      if (c == static_cast<Index>(n)) return;  // one digit: order unchanged
      const Index count = c;
      c = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Index e = (*perm)[i];
      perm_next[counts[digit[e]]++] = e;
    }
    perm->swap(perm_next);
  };

  std::size_t k = keys.size();
  while (k > 0) {
    --k;
    const RadixKey& key = keys[k];
    if (key.dim <= 1) continue;
    if (key.dim > kDigitRange) {
      const std::uint32_t* values = key.values;
      for (std::size_t e = 0; e < n; ++e) {
        digit[e] = static_cast<std::uint16_t>(values[e] & 0xFFFFu);
      }
      pass(kDigitRange);
      for (std::size_t e = 0; e < n; ++e) {
        digit[e] = static_cast<std::uint16_t>(values[e] >> 16);
      }
      pass(((key.dim - 1) >> 16) + 1);
      continue;
    }
    // Fuse this key with the more significant narrow keys before it while
    // the combined radix stays within one digit.
    std::size_t first = k;
    std::uint64_t range = key.dim;
    while (first > 0 && keys[first - 1].dim <= kDigitRange &&
           range * keys[first - 1].dim <= fuse_limit) {
      --first;
      range *= keys[first].dim;
    }
    for (std::size_t e = 0; e < n; ++e) {
      std::uint32_t d = 0;
      for (std::size_t f = first; f <= k; ++f) {
        d = d * static_cast<std::uint32_t>(keys[f].dim) + keys[f].values[e];
      }
      digit[e] = static_cast<std::uint16_t>(d);
    }
    pass(range);
    k = first;
  }
}

}  // namespace m2td::tensor::internal

#endif  // M2TD_TENSOR_RADIX_ORDER_H_
