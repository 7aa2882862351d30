#include "tensor/csf.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/radix_order.h"
#include "tensor/sparse_tensor.h"
#include "util/logging.h"
#include "util/timer.h"

namespace m2td::tensor {

namespace {

// Fiber order of a lexicographically sorted tensor: a stable radix pass
// over the non-target modes (in increasing mode order, i.e. by column)
// keeps equal-column entries in their stored order, which for a
// coalesced tensor is ascending leaf — exactly (column, leaf) order.
template <typename Index>
std::vector<Index> FiberOrder(const SparseTensor& x, std::size_t mode) {
  std::vector<Index> perm(static_cast<std::size_t>(x.NumNonZeros()));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<Index>(i);
  }
  std::vector<internal::RadixKey> keys;
  for (std::size_t m = 0; m < x.num_modes(); ++m) {
    if (m != mode) keys.push_back({x.IndexArray(m).data(), x.dim(m)});
  }
  internal::StableRadixOrder(keys, &perm);
  return perm;
}

}  // namespace

CsfModeIndex CsfModeIndex::Build(const SparseTensor& x, std::size_t mode) {
  M2TD_CHECK(mode < x.num_modes()) << "CSF mode out of range";
  M2TD_CHECK(x.IsSorted()) << "CSF requires a coalesced tensor";
  M2TD_CHECK(x.MatricizationColumnsFit(mode))
      << "CSF mode " << mode
      << ": the other modes span more than 2^64 matricization columns";
  obs::ObsSpan span("csf_build");
  span.Annotate("mode", static_cast<std::uint64_t>(mode));
  span.Annotate("nnz", x.NumNonZeros());
  Timer timer;

  CsfModeIndex out;
  out.mode_ = mode;
  const std::size_t modes = x.num_modes();
  out.other_dims_.reserve(modes - 1);
  for (std::size_t m = 0; m < modes; ++m) {
    if (m != mode) out.other_dims_.push_back(x.dim(m));
  }

  // For the last mode the stored lexicographic order already is fiber
  // order, so the permutation is the identity and the radix pass is
  // skipped.
  const std::uint64_t nnz = x.NumNonZeros();
  const std::size_t n = static_cast<std::size_t>(nnz);
  auto fill = [&](auto entry_at) {
    // Columns in stored order, computed after the radix pass has
    // released its buffers, so the fiber-order loop gathers one column
    // per entry instead of every coordinate.
    const std::vector<std::uint64_t> columns = x.MatricizationColumns(mode);
    const std::vector<std::uint32_t>& leaf = x.IndexArray(mode);
    const std::vector<double>& values = x.Values();
    out.leaf_coords_.resize(n);
    out.values_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t e = static_cast<std::size_t>(entry_at(p));
      out.leaf_coords_[p] = leaf[e];
      out.values_[p] = values[e];
      const std::uint64_t column = columns[e];
      if (out.fiber_columns_.empty() || out.fiber_columns_.back() != column) {
        out.fiber_offsets_.push_back(static_cast<std::uint64_t>(p));
        out.fiber_columns_.push_back(column);
      }
    }
    // The loop pushed each fiber's *begin*; close with the total entry
    // count so fiber f spans [offsets[f], offsets[f+1]). An empty tensor
    // yields offsets == {0}.
    out.fiber_offsets_.push_back(nnz);
  };
  if (mode + 1 == modes) {
    fill([](std::size_t p) { return p; });
  } else if (nnz < (std::uint64_t{1} << 32)) {
    const std::vector<std::uint32_t> perm = FiberOrder<std::uint32_t>(x, mode);
    fill([&perm](std::size_t p) { return perm[p]; });
  } else {
    const std::vector<std::uint64_t> perm = FiberOrder<std::uint64_t>(x, mode);
    fill([&perm](std::size_t p) { return perm[p]; });
  }

  span.Annotate("fibers", out.num_fibers());
  const double seconds = timer.ElapsedSeconds();
  static obs::Counter& builds = obs::GetCounter("tensor.csf.builds");
  static obs::Counter& build_us = obs::GetCounter("tensor.csf.build_us");
  builds.Increment();
  build_us.Add(static_cast<std::uint64_t>(seconds * 1e6));
  obs::GetGauge("tensor.csf.build_seconds")
      .Set(static_cast<double>(build_us.value()) * 1e-6);
  return out;
}

void CsfModeIndex::DecodeColumn(std::uint64_t column,
                                std::uint32_t* coords) const {
  for (std::size_t m = other_dims_.size(); m-- > 0;) {
    coords[m] = static_cast<std::uint32_t>(column % other_dims_[m]);
    column /= other_dims_[m];
  }
}

CsfCache::CsfCache(std::size_t num_modes)
    : num_modes_(num_modes), slots_(new Slot[num_modes == 0 ? 1 : num_modes]) {}

const CsfModeIndex& CsfCache::Get(const SparseTensor& x, std::size_t mode) {
  M2TD_CHECK(mode < num_modes_) << "CSF cache mode out of range";
  Slot& slot = slots_[mode];
  std::call_once(slot.once,
                 [&] { slot.index.emplace(CsfModeIndex::Build(x, mode)); });
  static obs::Counter& hits = obs::GetCounter("tensor.csf.reuses");
  hits.Increment();
  return *slot.index;
}

}  // namespace m2td::tensor
