#include "core/dm2td_internal.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "tensor/matricize.h"

namespace m2td::core::dm2td_internal {

namespace {

/// The columns of one slice under assembly.
class SliceColumns {
 public:
  explicit SliceColumns(std::size_t modes) : indices_(modes) {}

  /// Appends `rows` of `src`, which has this slice's modes.
  void Append(const tensor::SparseTensor& src, Rows rows) {
    auto append = [rows](const auto& column, auto* out) {
      out->insert(out->end(), column.begin() + rows.first,
                  column.begin() + rows.second);
    };
    for (std::size_t m = 0; m < indices_.size(); ++m) {
      append(src.IndexArray(m), &indices_[m]);
    }
    append(src.Values(), &values_);
  }

  Result<tensor::SparseTensor> Take(const std::vector<std::uint64_t>& shape) {
    return tensor::SparseTensor::FromArrays(shape, std::move(indices_),
                                            std::move(values_));
  }

 private:
  std::vector<std::vector<std::uint32_t>> indices_;
  std::vector<double> values_;
};

tensor::SparseTensor& Side(ShardSlices& slices, int side) {
  return side == 1 ? slices.x1 : slices.x2;
}

}  // namespace

Result<std::vector<ShardSlices>> RouteSplit(int phase,
                                            const JobGeometry& geometry,
                                            const tensor::SparseTensor& x1,
                                            Rows rows1,
                                            const tensor::SparseTensor& x2,
                                            Rows rows2, std::size_t shards) {
  if (shards == 0) return Status::InvalidArgument("routing to no shards");
  std::vector<ShardSlices> out(shards);
  for (int side = 1; side <= 2; ++side) {
    const tensor::SparseTensor& src = side == 1 ? x1 : x2;
    const auto [begin, end] = side == 1 ? rows1 : rows2;
    auto shard = [&](std::uint64_t e) -> std::size_t {
      if (phase == 1) return static_cast<std::size_t>(side - 1) % shards;
      return RowKey(src, e, 0, geometry.pivot_dims) % shards;
    };
    std::vector<SliceColumns> columns(shards, SliceColumns(src.num_modes()));
    // Consecutive rows bound for one shard move as one run: a whole side
    // in phase 1, at least a whole pivot group in phase 2.
    for (std::uint64_t e = begin; e < end;) {
      const std::size_t r = shard(e);
      std::uint64_t run_end = e + 1;
      while (run_end < end && shard(run_end) == r) ++run_end;
      columns[r].Append(src, {e, run_end});
      e = run_end;
    }
    for (std::size_t r = 0; r < shards; ++r) {
      M2TD_ASSIGN_OR_RETURN(Side(out[r], side), columns[r].Take(src.shape()));
    }
  }
  return out;
}

Result<ShardSlices> ConcatSlices(std::vector<ShardSlices> parts) {
  if (parts.empty()) return Status::IOError("no slices to concatenate");
  if (parts.size() == 1) return std::move(parts[0]);
  ShardSlices out;
  for (int side = 1; side <= 2; ++side) {
    const std::vector<std::uint64_t> shape = Side(parts[0], side).shape();
    SliceColumns columns(shape.size());
    for (ShardSlices& part : parts) {
      columns.Append(Side(part, side), AllRows(Side(part, side)));
    }
    M2TD_ASSIGN_OR_RETURN(Side(out, side), columns.Take(shape));
  }
  return out;
}

Status AppendSubTensorGrams(int kappa, const tensor::SparseTensor& sub,
                            std::vector<GramPiece>* out) {
  for (std::size_t m = 0; m < sub.num_modes(); ++m) {
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram, tensor::ModeGram(sub, m));
    out->push_back(GramPiece{kappa, m, std::move(gram)});
  }
  return Status::OK();
}

Status ReduceGramGroups(ShardSlices input, std::vector<GramPiece>* out) {
  for (int kappa = 1; kappa <= 2; ++kappa) {
    tensor::SparseTensor& sub = Side(input, kappa);
    if (sub.NumNonZeros() == 0) continue;
    sub.SortAndCoalesce();
    M2TD_RETURN_IF_ERROR(AppendSubTensorGrams(kappa, sub, out));
  }
  return Status::OK();
}

Status ReducePivotGroups(const PivotCoreBuilder& builder,
                         const JobGeometry& geometry,
                         const tensor::SparseTensor& x1, Rows rows1,
                         const tensor::SparseTensor& x2, Rows rows2,
                         std::vector<PartialCore>* out) {
  const tensor::SparseTensor* sides[2] = {&x1, &x2};
  auto key_at = [&](int s, std::uint64_t e) {
    return RowKey(*sides[s], e, 0, geometry.pivot_dims);
  };
  std::uint64_t next[2] = {rows1.first, rows2.first};
  const std::uint64_t size[2] = {rows1.second, rows2.second};
  while (next[0] < size[0] || next[1] < size[1]) {
    // The group is the smaller of the two sides' next keys; each side's
    // run of that key may be empty.
    std::uint64_t key = ~std::uint64_t{0};
    for (int s = 0; s < 2; ++s) {
      if (next[s] < size[s]) key = std::min(key, key_at(s, next[s]));
    }
    Rows runs[2];
    for (int s = 0; s < 2; ++s) {
      std::uint64_t end = next[s];
      while (end < size[s] && key_at(s, end) == key) ++end;
      if (end < size[s] && key_at(s, end) < key) {
        return Status::IOError("pivot keys descend in slice " +
                               std::to_string(s + 1) + " at row " +
                               std::to_string(end));
      }
      runs[s] = {next[s], end};
      next[s] = end;
    }
    builder.Build(key, x1, runs[0], x2, runs[1], out);
  }
  return Status::OK();
}

void PivotCoreBuilder::ModeGroup::KronRow(const std::uint32_t* idx,
                                          std::vector<double>* row) const {
  row->assign(1, 1.0);
  for (std::size_t f = 0; f < factors.size(); ++f) {
    // Grow the product in place from the back: entry i spreads to
    // [i * rank, (i + 1) * rank), which no unread entry overlaps.
    const std::size_t rank = factors[f].cols();
    const double* u = factors[f].RowPtr(idx[f]);
    const std::size_t size = row->size();
    row->resize(size * rank);
    for (std::size_t i = size; i-- > 0;) {
      const double v = (*row)[i];
      for (std::size_t j = rank; j-- > 0;) (*row)[i * rank + j] = v * u[j];
    }
  }
}

Result<PivotCoreBuilder> PivotCoreBuilder::Create(
    const JobGeometry& geometry, const std::vector<linalg::Matrix>& factors,
    bool zero_join, const std::vector<std::uint64_t>& cand1,
    const std::vector<std::uint64_t>& cand2) {
  if (factors.empty() || factors.size() != geometry.num_modes) {
    return Status::IOError("expected " + std::to_string(geometry.num_modes) +
                           " factors, got " + std::to_string(factors.size()));
  }
  std::vector<std::uint64_t> strides(factors.size(), 1);
  for (std::size_t m = factors.size(); m-- > 1;) {
    strides[m - 1] = strides[m] * factors[m].cols();
  }
  PivotCoreBuilder builder;
  builder.k_ = geometry.k;
  builder.zero_join_ = zero_join;
  builder.core_size_ = strides[0] * factors[0].cols();
  // Each mode belongs to one group at most, so tuple offsets stay inside
  // the core.
  std::vector<bool> seen(factors.size(), false);
  auto make_group = [&](const std::vector<std::size_t>& modes,
                        const std::vector<std::uint64_t>& dims,
                        const std::vector<std::uint64_t>* cands,
                        ModeGroup* group) -> Status {
    group->dims = dims;
    group->offsets = {0};
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (modes[i] >= factors.size() || seen[modes[i]]) {
        return Status::IOError("mode " + std::to_string(modes[i]) +
                               " repeated or out of range");
      }
      seen[modes[i]] = true;
      const linalg::Matrix& factor = factors[modes[i]];
      if (factor.rows() != dims[i]) {
        return Status::IOError("mode-" + std::to_string(modes[i]) +
                               " factor has " + std::to_string(factor.rows()) +
                               " rows for extent " + std::to_string(dims[i]));
      }
      group->factors.push_back(factor);
      std::vector<std::uint64_t> next;
      for (std::uint64_t base : group->offsets) {
        for (std::uint64_t j = 0; j < factor.cols(); ++j) {
          next.push_back(base + j * strides[modes[i]]);
        }
      }
      group->offsets = std::move(next);
    }
    if (!zero_join || cands == nullptr) return Status::OK();
    std::uint64_t space = 1;
    for (std::uint64_t d : dims) space *= d;
    group->num_cand = cands->size();
    group->cand_sum.assign(group->offsets.size(), 0.0);
    std::vector<std::uint32_t> idx(dims.size());
    std::vector<double> row;
    for (std::uint64_t key : *cands) {
      if (key >= space) return Status::IOError("candidate key out of range");
      DecodeKey(key, dims, idx.data());
      group->KronRow(idx.data(), &row);
      for (std::size_t j = 0; j < row.size(); ++j) group->cand_sum[j] += row[j];
    }
    return Status::OK();
  };
  M2TD_RETURN_IF_ERROR(make_group(geometry.pivot_modes, geometry.pivot_dims,
                                  nullptr, &builder.pivot_));
  M2TD_RETURN_IF_ERROR(make_group(geometry.side1_modes, geometry.side1_dims,
                                  &cand1, &builder.side1_));
  M2TD_RETURN_IF_ERROR(make_group(geometry.side2_modes, geometry.side2_dims,
                                  &cand2, &builder.side2_));
  return builder;
}

void PivotCoreBuilder::Build(std::uint64_t pivot_key,
                             const tensor::SparseTensor& x1, Rows rows1,
                             const tensor::SparseTensor& x2, Rows rows2,
                             std::vector<PartialCore>* out) const {
  // A/C: side-1 value and indicator sums; B/D: side-2 indicator and value
  // sums. Under zero-join the indicator sums are the candidate sums.
  std::vector<double> a(side1_.offsets.size(), 0.0), c(a.size(), 0.0),
      b(side2_.offsets.size(), 0.0), d(b.size(), 0.0), row;
  auto add = [&](const ModeGroup& side, const tensor::SparseTensor& slice,
                 Rows rows, std::vector<double>& values,
                 std::vector<double>& indicators) {
    std::vector<std::uint32_t> idx(side.dims.size());
    for (std::uint64_t e = rows.first; e < rows.second; ++e) {
      for (std::size_t i = 0; i < idx.size(); ++i) {
        idx[i] = slice.Index(k_ + i, e);
      }
      side.KronRow(idx.data(), &row);
      for (std::size_t j = 0; j < row.size(); ++j) {
        values[j] += slice.Value(e) * row[j];
        if (!zero_join_) indicators[j] += row[j];
      }
    }
    return rows.second - rows.first;
  };
  const std::uint64_t n1 = add(side1_, x1, rows1, a, c);
  const std::uint64_t n2 = add(side2_, x2, rows2, d, b);
  // Zero-join pairs every candidate with every candidate, less the pairs
  // with neither member simulated.
  const std::uint64_t e1 = side1_.num_cand, e2 = side2_.num_cand;
  const std::uint64_t join_cells =
      zero_join_
          ? e1 * e2 - (e1 - std::min(n1, e1)) * (e2 - std::min(n2, e2))
          : n1 * n2;
  if (join_cells == 0) return;
  if (zero_join_) {
    c = side1_.cand_sum;
    b = side2_.cand_sum;
  }

  std::vector<std::uint32_t> pivot_idx(k_);
  DecodeKey(pivot_key, pivot_.dims, pivot_idx.data());
  std::vector<double> w;
  pivot_.KronRow(pivot_idx.data(), &w);
  std::vector<double> h(a.size() * b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    for (std::size_t l = 0; l < b.size(); ++l) {
      h[j * b.size() + l] = 0.5 * (a[j] * b[l] + c[j] * d[l]);
    }
  }
  PartialCore part{pivot_key, join_cells,
                   std::vector<double>(static_cast<std::size_t>(core_size_))};
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      const std::uint64_t base = pivot_.offsets[i] + side1_.offsets[j];
      for (std::size_t l = 0; l < b.size(); ++l) {
        part.values[base + side2_.offsets[l]] = w[i] * h[j * b.size() + l];
      }
    }
  }
  out->push_back(std::move(part));
}

Result<tensor::DenseTensor> SumPartialCores(
    std::vector<PartialCore>* parts, const std::vector<linalg::Matrix>& factors,
    std::uint64_t* join_nnz) {
  std::vector<std::uint64_t> core_shape;
  for (const linalg::Matrix& factor : factors) {
    core_shape.push_back(factor.cols());
  }
  std::sort(parts->begin(), parts->end(),
            [](const PartialCore& x, const PartialCore& y) {
              return x.pivot_key < y.pivot_key;
            });
  tensor::DenseTensor core(core_shape);
  std::vector<double>& data = core.mutable_data();
  for (const PartialCore& part : *parts) {
    if (part.values.size() != data.size()) {
      return Status::IOError("partial core of pivot " +
                             std::to_string(part.pivot_key) + " has " +
                             std::to_string(part.values.size()) +
                             " entries for a core of " +
                             std::to_string(data.size()));
    }
    for (std::size_t e = 0; e < data.size(); ++e) data[e] += part.values[e];
    *join_nnz += part.join_cells;
  }
  return core;
}

Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::vector<GramPiece> pieces, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape, M2tdMethod method,
    const std::vector<std::uint64_t>& ranks,
    const linalg::GramFactorOptions& init) {
  const std::size_t num_modes = full_shape.size();
  const std::size_t k = partition.pivot_modes.size();
  // grams[kappa - 1][sub_mode]: a sub-tensor's pivot modes, then its side.
  std::vector<linalg::Matrix> grams[2] = {
      std::vector<linalg::Matrix>(k + partition.side1_modes.size()),
      std::vector<linalg::Matrix>(k + partition.side2_modes.size())};
  for (GramPiece& piece : pieces) {
    if ((piece.kappa == 1 || piece.kappa == 2) &&
        piece.sub_mode < grams[piece.kappa - 1].size()) {
      grams[piece.kappa - 1][piece.sub_mode] = std::move(piece.gram);
    }
  }
  for (const std::vector<linalg::Matrix>& side : grams) {
    for (const linalg::Matrix& gram : side) {
      if (gram.rows() == 0) {
        return Status::Internal("missing Gram piece from phase 1");
      }
    }
  }

  std::vector<linalg::Matrix> factors(num_modes);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    M2TD_TRACE_SCOPE("combine_pivot_factor");
    // The two sub-tensors draw decorrelated sketches: x2's stream is offset
    // past every original mode index so no (sub, mode) pair shares a seed.
    M2TD_ASSIGN_OR_RETURN(
        factors[mode],
        CombinePivotFactor(method, grams[0][i], grams[1][i], ranks[mode],
                           init.ForMode(mode), init.ForMode(mode + num_modes)));
  }
  for (std::size_t side = 0; side < 2; ++side) {
    const std::vector<std::size_t>& side_modes =
        side == 0 ? partition.side1_modes : partition.side2_modes;
    for (std::size_t i = 0; i < side_modes.size(); ++i) {
      const std::size_t mode = side_modes[i];
      const linalg::Matrix& gram = grams[side][k + i];
      M2TD_ASSIGN_OR_RETURN(
          factors[mode],
          linalg::GramFactor(
              gram, std::min<std::uint64_t>(ranks[mode], gram.rows()),
              init.ForMode(mode + side * num_modes)));
    }
  }
  return factors;
}

Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options) {
  M2TD_RETURN_IF_ERROR(
      ValidateM2tdArgs(subs, partition, full_shape, options.ranks));
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.backend == DistBackend::kProcess && options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::OK();
}

void GatherZeroJoinCandidates(const SubEnsembles& subs,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2) {
  for (int side = 1; side <= 2; ++side) {
    const tensor::SparseTensor& sub = side == 1 ? subs.x1 : subs.x2;
    std::vector<std::uint64_t>* cands = side == 1 ? cand1 : cand2;
    const std::vector<std::uint64_t>& dims =
        side == 1 ? geometry.side1_dims : geometry.side2_dims;
    cands->resize(sub.NumNonZeros());
    for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
      (*cands)[e] = RowKey(sub, e, geometry.k, dims);
    }
    std::sort(cands->begin(), cands->end());
    cands->erase(std::unique(cands->begin(), cands->end()), cands->end());
  }
}

}  // namespace m2td::core::dm2td_internal
