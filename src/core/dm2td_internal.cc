#include "core/dm2td_internal.h"

#include <algorithm>
#include <map>
#include <utility>

#include "linalg/svd.h"
#include "tensor/matricize.h"

namespace m2td::core::dm2td_internal {

namespace {

/// Builds one sub-tensor from its cells and appends its per-mode Grams.
Status BuildGramsForSub(int kappa, const std::vector<std::uint64_t>& shape,
                        const std::vector<TensorCell>& cells,
                        std::vector<GramPiece>* out) {
  tensor::SparseTensor sub(shape);
  sub.Reserve(cells.size());
  for (const TensorCell& cell : cells) {
    sub.AppendEntry(cell.idx, cell.value);
  }
  sub.SortAndCoalesce();
  for (std::size_t m = 0; m < sub.num_modes(); ++m) {
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram, tensor::ModeGram(sub, m));
    out->push_back(GramPiece{kappa, m, std::move(gram)});
  }
  return Status::OK();
}

}  // namespace

Result<std::uint64_t> CheckedPivotKey(const TensorCell& cell,
                                      const JobGeometry& geometry) {
  if (cell.idx.size() < geometry.k) {
    return Status::IOError("cell of arity " + std::to_string(cell.idx.size()) +
                           " has no pivot coordinates");
  }
  return PivotKey(cell.idx, geometry.pivot_dims);
}

Status ReduceGramGroups(std::vector<TensorCell> cells,
                        const std::vector<std::uint64_t>& shape1,
                        const std::vector<std::uint64_t>& shape2,
                        std::vector<GramPiece>* out) {
  std::map<int, std::vector<TensorCell>> by_kappa;
  for (TensorCell& cell : cells) {
    by_kappa[cell.kappa].push_back(std::move(cell));
  }
  for (const auto& [kappa, group] : by_kappa) {
    M2TD_RETURN_IF_ERROR(
        BuildGramsForSub(kappa, kappa == 1 ? shape1 : shape2, group, out));
  }
  return Status::OK();
}

Status ReducePivotGroups(const PivotCoreBuilder& builder,
                         const JobGeometry& geometry,
                         std::vector<TensorCell> cells,
                         std::vector<PartialCore>* out) {
  std::map<std::uint64_t, std::vector<TensorCell>> groups;
  for (TensorCell& cell : cells) {
    M2TD_ASSIGN_OR_RETURN(const std::uint64_t key,
                          CheckedPivotKey(cell, geometry));
    groups[key].push_back(std::move(cell));
  }
  for (const auto& [key, group] : groups) {
    M2TD_RETURN_IF_ERROR(builder.Build(key, group, out));
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

Status PivotCoreBuilder::Build(std::uint64_t pivot_key,
                               const std::vector<TensorCell>& cells,
                               std::vector<PartialCore>* out) const {
  // A/C: side-1 value and indicator sums; B/D: side-2 indicator and value
  // sums. Under zero-join the indicator sums are the candidate sums.
  std::vector<double> a(side1_.offsets.size(), 0.0), c(a.size(), 0.0),
      b(side2_.offsets.size(), 0.0), d(b.size(), 0.0), row;
  std::uint64_t n1 = 0, n2 = 0;
  for (const TensorCell& cell : cells) {
    const bool first = cell.kappa == 1;
    const ModeGroup& side = first ? side1_ : side2_;
    if (cell.idx.size() != k_ + side.dims.size()) {
      return Status::IOError("cell of arity " +
                             std::to_string(cell.idx.size()) +
                             " in pivot group " + std::to_string(pivot_key));
    }
    for (std::size_t i = 0; i < side.dims.size(); ++i) {
      if (cell.idx[k_ + i] >= side.dims[i]) {
        return Status::IOError("cell index out of range in pivot group " +
                               std::to_string(pivot_key));
      }
    }
    side.KronRow(cell.idx.data() + k_, &row);
    std::vector<double>& values = first ? a : d;
    std::vector<double>& indicators = first ? c : b;
    ++(first ? n1 : n2);
    for (std::size_t j = 0; j < row.size(); ++j) {
      values[j] += cell.value * row[j];
      if (!zero_join_) indicators[j] += row[j];
    }
  }
  // Zero-join pairs every candidate with every candidate, less the pairs
  // with neither member simulated.
  const std::uint64_t e1 = side1_.num_cand, e2 = side2_.num_cand;
  const std::uint64_t join_cells =
      zero_join_
          ? e1 * e2 - (e1 - std::min(n1, e1)) * (e2 - std::min(n2, e2))
          : n1 * n2;
  if (join_cells == 0) return Status::OK();
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
  return Status::OK();
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

std::vector<TensorCell> CollectAllCells(const SubEnsembles& subs) {
  std::vector<TensorCell> cells;
  cells.reserve(subs.x1.NumNonZeros() + subs.x2.NumNonZeros());
  for (int kappa = 1; kappa <= 2; ++kappa) {
    const tensor::SparseTensor& sub = kappa == 1 ? subs.x1 : subs.x2;
    for (std::uint64_t e = 0; e < sub.NumNonZeros(); ++e) {
      TensorCell cell{kappa, std::vector<std::uint32_t>(sub.num_modes()),
                      sub.Value(e)};
      for (std::size_t m = 0; m < sub.num_modes(); ++m) {
        cell.idx[m] = sub.Index(m, e);
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

Result<std::vector<linalg::Matrix>> AssembleFactors(
    std::vector<GramPiece> pieces, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
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

  std::vector<linalg::Matrix> factors(full_shape.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    M2TD_ASSIGN_OR_RETURN(factors[mode],
                          CombinePivotFactor(options.method, grams[0][i],
                                             grams[1][i], options.ranks[mode],
                                             {}, {}));
  }
  for (int side = 0; side < 2; ++side) {
    const std::vector<std::size_t>& side_modes =
        side == 0 ? partition.side1_modes : partition.side2_modes;
    for (std::size_t i = 0; i < side_modes.size(); ++i) {
      const std::size_t mode = side_modes[i];
      const std::size_t rank = static_cast<std::size_t>(
          std::min<std::uint64_t>(options.ranks[mode], full_shape[mode]));
      M2TD_ASSIGN_OR_RETURN(
          factors[mode],
          linalg::LeftSingularVectorsFromGram(grams[side][k + i], rank));
    }
  }
  return factors;
}

Status ValidateDm2tdArgs(const SubEnsembles& subs,
                         const PfPartition& partition,
                         const std::vector<std::uint64_t>& full_shape,
                         const DM2tdOptions& options) {
  M2TD_RETURN_IF_ERROR(
      ValidatePartitionAndRanks(partition, full_shape, options.ranks));
  if (!subs.x1.IsSorted() || !subs.x2.IsSorted()) {
    return Status::InvalidArgument("DM2TD requires coalesced sub-tensors");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.backend == DistBackend::kProcess && options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::OK();
}

void GatherZeroJoinCandidates(const std::vector<TensorCell>& all_cells,
                              const JobGeometry& geometry,
                              std::vector<std::uint64_t>* cand1,
                              std::vector<std::uint64_t>* cand2) {
  cand1->clear();
  cand2->clear();
  for (const TensorCell& cell : all_cells) {
    if (cell.kappa == 1) {
      cand1->push_back(SideKey(cell.idx, geometry.k, geometry.side1_dims));
    } else {
      cand2->push_back(SideKey(cell.idx, geometry.k, geometry.side2_dims));
    }
  }
  for (std::vector<std::uint64_t>* cands : {cand1, cand2}) {
    std::sort(cands->begin(), cands->end());
    cands->erase(std::unique(cands->begin(), cands->end()), cands->end());
  }
}

}  // namespace m2td::core::dm2td_internal
