#include "oracles/mode_gram_coo.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "tensor/gram_groups.h"

namespace m2td::tensor {

Result<linalg::Matrix> ModeGramCoo(const SparseTensor& x, std::size_t mode) {
  if (mode >= x.num_modes()) {
    return Status::InvalidArgument("ModeGram: mode out of range");
  }
  if (!x.IsSorted()) {
    return Status::InvalidArgument(
        "ModeGram requires a coalesced tensor (call SortAndCoalesce)");
  }
  const std::size_t n = static_cast<std::size_t>(x.dim(mode));
  obs::ObsSpan span("mode_gram_coo");
  span.Annotate("mode", static_cast<std::uint64_t>(mode));
  span.Annotate("dim", static_cast<std::uint64_t>(n));
  span.Annotate("nnz", x.NumNonZeros());
  linalg::Matrix gram(n, n);
  const std::uint64_t nnz = x.NumNonZeros();
  if (nnz == 0) return gram;

  // Bucket entries by matricization column.
  struct Entry {
    std::uint64_t column;
    std::uint32_t row;
    double value;
  };
  std::vector<Entry> entries;
  entries.reserve(nnz);
  const std::vector<std::uint64_t> columns = x.MatricizationColumns(mode);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    entries.push_back(Entry{columns[e],
                            x.Index(mode, e), x.Value(e)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.column < b.column; });

  // Group boundaries: one group per distinct matricization column.
  std::vector<std::uint64_t> group_offsets;
  for (std::uint64_t e = 0; e < entries.size(); ++e) {
    if (e == 0 || entries[e].column != entries[e - 1].column) {
      group_offsets.push_back(e);
    }
  }
  group_offsets.push_back(entries.size());

  // Coalescing guarantees each Gram cell receives at most one
  // contribution per group (rows are unique within a column), so the
  // result does not depend on within-group entry permutation — only the
  // ascending group order and the chunking, which match ModeGram's.
  internal::AccumulateGramGroups(
      &gram, n, group_offsets,
      [&entries](linalg::Matrix& acc, std::uint64_t group_begin,
                 std::uint64_t group_end) {
        for (std::uint64_t i = group_begin; i < group_end; ++i) {
          for (std::uint64_t j = i; j < group_end; ++j) {
            const Entry& ei = entries[static_cast<std::size_t>(i)];
            const Entry& ej = entries[static_cast<std::size_t>(j)];
            const double contrib = ei.value * ej.value;
            if (ei.row <= ej.row) {
              acc(ei.row, ej.row) += contrib;
            } else {
              acc(ej.row, ei.row) += contrib;
            }
          }
        }
      });
  return gram;
}

}  // namespace m2td::tensor
