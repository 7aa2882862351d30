#include "core/je_stitch.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace m2td::core {

namespace {

/// One side's entries grouped by pivot configuration. A coalesced
/// sub-tensor stores its k pivot modes first, so each configuration's
/// entries are one contiguous run of the stored order, runs ascend by
/// pivot key (row-major over the pivot modes), and within a run entries
/// ascend by side coordinates. The coordinates themselves stay in the
/// sub-tensor's index arrays: grouping reads each one once and decodes
/// nothing.
struct PivotRuns {
  std::vector<std::uint64_t> keys;     // pivot key of run r, ascending
  std::vector<std::uint64_t> offsets;  // run r: entries [offsets[r], offsets[r+1])
};

PivotRuns GroupByPivot(const tensor::SparseTensor& sub, std::size_t k) {
  PivotRuns runs;
  for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
    std::uint64_t pivot_key = 0;
    for (std::size_t m = 0; m < k; ++m) {
      pivot_key = pivot_key * sub.dim(m) + sub.Index(m, e);
    }
    if (runs.keys.empty() || runs.keys.back() != pivot_key) {
      runs.keys.push_back(pivot_key);
      runs.offsets.push_back(e);
    }
  }
  runs.offsets.push_back(sub.NumNonZeros());
  return runs;
}

/// Row-major key of entry `e`'s side (non-pivot) coordinates.
std::uint64_t SideKey(const tensor::SparseTensor& sub, std::size_t k,
                      std::uint64_t e) {
  std::uint64_t key = 0;
  for (std::size_t m = k; m < sub.num_modes(); ++m) {
    key = key * sub.dim(m) + sub.Index(m, e);
  }
  return key;
}

/// A pivot configuration present on at least one side: its run on each
/// side, if any.
struct PivotPair {
  std::optional<std::size_t> run1;
  std::optional<std::size_t> run2;
};

/// Merge-walks the two ascending pivot-key lists. With `either` every
/// configuration present on a side is kept (zero-join); otherwise only
/// those present on both.
std::vector<PivotPair> MatchPivots(const PivotRuns& runs1,
                                   const PivotRuns& runs2, bool either) {
  std::vector<PivotPair> pairs;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < runs1.keys.size() || b < runs2.keys.size()) {
    const bool has_a = a < runs1.keys.size();
    const bool has_b = b < runs2.keys.size();
    if (has_a && has_b && runs1.keys[a] == runs2.keys[b]) {
      pairs.push_back({a++, b++});
    } else if (has_a && (!has_b || runs1.keys[a] < runs2.keys[b])) {
      if (either) pairs.push_back({a, std::nullopt});
      ++a;
    } else {
      if (either) pairs.push_back({std::nullopt, b});
      ++b;
    }
  }
  return pairs;
}

/// Candidate free configurations of one side for zero-join: the distinct
/// side keys selected anywhere in the sub-ensemble, ascending, each with
/// one entry that carries its coordinates.
struct Candidates {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> entries;
};

Candidates CollectCandidates(const std::vector<std::uint64_t>& side_keys) {
  std::vector<std::uint64_t> order(side_keys.size());
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return side_keys[a] < side_keys[b];
  });
  Candidates cands;
  for (std::uint64_t e : order) {
    if (cands.keys.empty() || cands.keys.back() != side_keys[e]) {
      cands.keys.push_back(side_keys[e]);
      cands.entries.push_back(e);
    }
  }
  return cands;
}

/// For each candidate, the value of the run entry with that side key, or
/// nullopt. Runs ascend by side key, as do the candidates, so this is one
/// merge walk.
void RunLookup(const std::vector<std::uint64_t>& side_keys,
               const std::vector<double>& values, std::uint64_t begin,
               std::uint64_t end, const Candidates& cands,
               std::vector<std::optional<double>>* out) {
  out->assign(cands.keys.size(), std::nullopt);
  std::uint64_t e = begin;
  for (std::size_t c = 0; c < cands.keys.size() && e < end; ++c) {
    if (side_keys[e] == cands.keys[c]) (*out)[c] = values[e++];
  }
}

/// Exclusive prefix sum of per-pivot cell counts: pivot p writes
/// [offsets[p], offsets[p+1]).
std::vector<std::uint64_t> PrefixOffsets(
    const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint64_t> offsets(counts.size() + 1, 0);
  for (std::size_t p = 0; p < counts.size(); ++p) {
    offsets[p + 1] = offsets[p] + counts[p];
  }
  return offsets;
}

/// Grain that splits `n` pivots into at most 64 chunks: pivots carry
/// many cells each, so the default 256-index floor would serialize them.
std::uint64_t PivotGrain(std::size_t n) {
  return std::max<std::uint64_t>(1, (n + 63) / 64);
}

}  // namespace

Result<tensor::SparseTensor> JeStitch(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const StitchOptions& options) {
  if (partition.NumModes() != full_shape.size()) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  const std::size_t k = partition.pivot_modes.size();
  const tensor::SparseTensor& x1 = subs.x1;
  const tensor::SparseTensor& x2 = subs.x2;
  if (x1.num_modes() != k + partition.side1_modes.size() ||
      x2.num_modes() != k + partition.side2_modes.size()) {
    return Status::InvalidArgument(
        "sub-tensor mode counts do not match the partition");
  }
  // Sub-tensor mode s of side `side` lands on original mode target[s].
  std::vector<std::size_t> target1 = partition.pivot_modes;
  std::vector<std::size_t> target2 = partition.pivot_modes;
  target1.insert(target1.end(), partition.side1_modes.begin(),
                 partition.side1_modes.end());
  target2.insert(target2.end(), partition.side2_modes.begin(),
                 partition.side2_modes.end());
  for (std::size_t s = 0; s < target1.size(); ++s) {
    if (target1[s] >= full_shape.size() ||
        x1.dim(s) != full_shape[target1[s]]) {
      return Status::InvalidArgument(
          "sub-tensor x1 shape does not match the partition");
    }
  }
  for (std::size_t s = 0; s < target2.size(); ++s) {
    if (target2[s] >= full_shape.size() ||
        x2.dim(s) != full_shape[target2[s]]) {
      return Status::InvalidArgument(
          "sub-tensor x2 shape does not match the partition");
    }
  }
  if (!x1.IsSorted() || !x2.IsSorted()) {
    return Status::InvalidArgument("JeStitch requires coalesced sub-tensors");
  }

  obs::ObsSpan span("je_stitch");
  span.Annotate("x1_nnz", x1.NumNonZeros());
  span.Annotate("x2_nnz", x2.NumNonZeros());
  span.Annotate("zero_join", options.zero_join ? "true" : "false");
  static obs::Counter& stitched_cells =
      obs::GetCounter("core.stitched_join_cells");
  static obs::Histogram& join_nnz_hist =
      obs::GetHistogram("core.join_nnz_per_stitch");

  const PivotRuns runs1 = GroupByPivot(x1, k);
  const PivotRuns runs2 = GroupByPivot(x2, k);
  const std::vector<PivotPair> pivots =
      MatchPivots(runs1, runs2, options.zero_join);
  const std::size_t side1 = partition.side1_modes.size();
  const std::size_t side2 = partition.side2_modes.size();

  // Zero-join state: each side's per-entry side keys and candidates.
  std::vector<std::uint64_t> keys1, keys2;
  Candidates cands1, cands2;
  if (options.zero_join) {
    keys1.resize(static_cast<std::size_t>(x1.NumNonZeros()));
    keys2.resize(static_cast<std::size_t>(x2.NumNonZeros()));
    for (std::size_t e = 0; e < keys1.size(); ++e) keys1[e] = SideKey(x1, k, e);
    for (std::size_t e = 0; e < keys2.size(); ++e) keys2[e] = SideKey(x2, k, e);
    cands1 = CollectCandidates(keys1);
    cands2 = CollectCandidates(keys2);
  }
  auto run_length = [](const PivotRuns& runs, std::optional<std::size_t> r) {
    return r ? runs.offsets[*r + 1] - runs.offsets[*r] : 0;
  };

  // Cells per pivot. Plain: every member pair. Zero-join: every candidate
  // pair with at least one member simulated.
  std::vector<std::uint64_t> counts(pivots.size());
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    const std::uint64_t n1 = run_length(runs1, pivots[p].run1);
    const std::uint64_t n2 = run_length(runs2, pivots[p].run2);
    if (options.zero_join) {
      const std::uint64_t c1 = cands1.keys.size();
      const std::uint64_t c2 = cands2.keys.size();
      counts[p] = c1 * c2 - (c1 - n1) * (c2 - n2);
    } else {
      counts[p] = n1 * n2;
    }
  }
  const std::vector<std::uint64_t> offsets = PrefixOffsets(counts);
  const std::uint64_t total = offsets.back();

  std::vector<std::vector<std::uint32_t>> indices(
      full_shape.size(),
      std::vector<std::uint32_t>(static_cast<std::size_t>(total)));
  std::vector<double> values(static_cast<std::size_t>(total));
  const std::vector<double>& v1 = x1.Values();
  const std::vector<double>& v2 = x2.Values();

  // Each pivot fills its own disjoint slice, e1-major then e2, so the
  // arrays are the same at any thread count and chunking.
  parallel::ParallelFor(
      0, pivots.size(), PivotGrain(pivots.size()),
      [&](std::uint64_t pb, std::uint64_t pe) {
        std::vector<std::optional<double>> lookup1, lookup2;
        for (std::uint64_t p = pb; p < pe; ++p) {
          const PivotPair& pair = pivots[static_cast<std::size_t>(p)];
          const std::uint64_t begin = offsets[static_cast<std::size_t>(p)];
          const std::uint64_t cells = counts[static_cast<std::size_t>(p)];
          if (cells == 0) continue;
          // Pivot coordinates from whichever side has the configuration.
          const tensor::SparseTensor& pivot_src = pair.run1 ? x1 : x2;
          const std::uint64_t pivot_entry =
              pair.run1 ? runs1.offsets[*pair.run1]
                        : runs2.offsets[*pair.run2];
          for (std::size_t s = 0; s < k; ++s) {
            std::uint32_t* col = indices[partition.pivot_modes[s]].data();
            std::fill(col + begin, col + begin + cells,
                      pivot_src.Index(s, pivot_entry));
          }

          if (!options.zero_join) {
            const std::uint64_t b1 = runs1.offsets[*pair.run1];
            const std::uint64_t e1_end = runs1.offsets[*pair.run1 + 1];
            const std::uint64_t b2 = runs2.offsets[*pair.run2];
            const std::uint64_t n2 = runs2.offsets[*pair.run2 + 1] - b2;
            std::uint64_t out = begin;
            for (std::uint64_t e1 = b1; e1 < e1_end; ++e1, out += n2) {
              for (std::size_t s = 0; s < side1; ++s) {
                std::uint32_t* col =
                    indices[partition.side1_modes[s]].data() + out;
                std::fill(col, col + n2, x1.Index(k + s, e1));
              }
              for (std::size_t s = 0; s < side2; ++s) {
                std::memcpy(indices[partition.side2_modes[s]].data() + out,
                            x2.IndexArray(k + s).data() + b2,
                            n2 * sizeof(std::uint32_t));
              }
              const double a = v1[e1];
              double* dst = values.data() + out;
              const double* src = v2.data() + b2;
              for (std::uint64_t i = 0; i < n2; ++i) {
                dst[i] = 0.5 * (a + src[i]);
              }
            }
            continue;
          }

          // Zero-join: every candidate pair with a simulated member, the
          // missing member contributing 0.
          if (pair.run1) {
            RunLookup(keys1, v1, runs1.offsets[*pair.run1],
                      runs1.offsets[*pair.run1 + 1], cands1, &lookup1);
          } else {
            lookup1.assign(cands1.keys.size(), std::nullopt);
          }
          if (pair.run2) {
            RunLookup(keys2, v2, runs2.offsets[*pair.run2],
                      runs2.offsets[*pair.run2 + 1], cands2, &lookup2);
          } else {
            lookup2.assign(cands2.keys.size(), std::nullopt);
          }
          std::uint64_t out = begin;
          for (std::size_t c1 = 0; c1 < cands1.keys.size(); ++c1) {
            const std::uint64_t e1 = cands1.entries[c1];
            for (std::size_t c2 = 0; c2 < cands2.keys.size(); ++c2) {
              if (!lookup1[c1] && !lookup2[c2]) continue;
              const std::uint64_t e2 = cands2.entries[c2];
              for (std::size_t s = 0; s < side1; ++s) {
                indices[partition.side1_modes[s]][out] = x1.Index(k + s, e1);
              }
              for (std::size_t s = 0; s < side2; ++s) {
                indices[partition.side2_modes[s]][out] = x2.Index(k + s, e2);
              }
              values[out] = 0.5 * (lookup1[c1].value_or(0.0) +
                                   lookup2[c2].value_or(0.0));
              ++out;
            }
          }
        }
      },
      "je_stitch_join");

  M2TD_ASSIGN_OR_RETURN(
      tensor::SparseTensor join,
      tensor::SparseTensor::FromArrays(full_shape, std::move(indices),
                                       std::move(values)));
  join.SortAndCoalesce(tensor::CoalescePolicy::kMean);
  span.Annotate("join_nnz", join.NumNonZeros());
  stitched_cells.Add(join.NumNonZeros());
  join_nnz_hist.Observe(join.NumNonZeros());
  return join;
}

}  // namespace m2td::core
