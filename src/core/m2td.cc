#include "core/m2td.h"

#include <algorithm>

#include "linalg/svd.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "tensor/matricize.h"
#include "tensor/ttm.h"
#include "util/logging.h"

namespace m2td::core {

const char* M2tdMethodName(M2tdMethod method) {
  switch (method) {
    case M2tdMethod::kAvg:
      return "M2TD-AVG";
    case M2tdMethod::kConcat:
      return "M2TD-CONCAT";
    case M2tdMethod::kSelect:
      return "M2TD-SELECT";
    case M2tdMethod::kWeighted:
      return "M2TD-WEIGHTED";
  }
  return "?";
}

Result<linalg::Matrix> RowSelect(const linalg::Matrix& u1,
                                 const linalg::Matrix& u2) {
  if (u1.rows() != u2.rows() || u1.cols() != u2.cols()) {
    return Status::InvalidArgument("RowSelect requires same-shaped inputs");
  }
  linalg::Matrix out(u1.rows(), u1.cols());
  for (std::size_t i = 0; i < u1.rows(); ++i) {
    const bool take_first = u1.RowNorm(i) >= u2.RowNorm(i);
    const double* src = take_first ? u1.RowPtr(i) : u2.RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < u1.cols(); ++j) dst[j] = src[j];
  }
  return out;
}

Result<linalg::Matrix> RowWeightedBlend(const linalg::Matrix& u1,
                                        const linalg::Matrix& u2) {
  if (u1.rows() != u2.rows() || u1.cols() != u2.cols()) {
    return Status::InvalidArgument(
        "RowWeightedBlend requires same-shaped inputs");
  }
  linalg::Matrix out(u1.rows(), u1.cols());
  for (std::size_t i = 0; i < u1.rows(); ++i) {
    const double w1 = u1.RowNorm(i);
    const double w2 = u2.RowNorm(i);
    const double total = w1 + w2;
    if (total <= 0.0) continue;  // both rows zero: leave the row zero
    const double* r1 = u1.RowPtr(i);
    const double* r2 = u2.RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < u1.cols(); ++j) {
      dst[j] = (w1 * r1[j] + w2 * r2[j]) / total;
    }
  }
  return out;
}

Status ValidatePartitionAndRanks(const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const std::vector<std::uint64_t>& ranks) {
  if (partition.NumModes() != full_shape.size()) {
    return Status::InvalidArgument("partition does not match full shape");
  }
  if (ranks.size() != full_shape.size()) {
    return Status::InvalidArgument("one rank per original mode required");
  }
  if (std::find(ranks.begin(), ranks.end(), 0) != ranks.end()) {
    return Status::InvalidArgument("every rank must be at least 1");
  }
  return Status::OK();
}

Result<linalg::Matrix> CombinePivotFactor(
    M2tdMethod method, const linalg::Matrix& gram1,
    const linalg::Matrix& gram2, std::uint64_t rank,
    const linalg::GramFactorOptions& init1,
    const linalg::GramFactorOptions& init2) {
  if (gram1.rows() != gram2.rows() || gram1.cols() != gram2.cols()) {
    return Status::InvalidArgument(
        "pivot Grams of the two sub-tensors differ in shape");
  }
  const std::size_t k = static_cast<std::size_t>(
      std::min<std::uint64_t>(rank, gram1.rows()));
  if (method == M2tdMethod::kConcat) {
    return linalg::GramFactor(
        linalg::LinearCombination(1.0, gram1, 1.0, gram2), k, init1);
  }
  M2TD_ASSIGN_OR_RETURN(linalg::Matrix u1, linalg::GramFactor(gram1, k, init1));
  M2TD_ASSIGN_OR_RETURN(linalg::Matrix u2, linalg::GramFactor(gram2, k, init2));
  if (method == M2tdMethod::kAvg) {
    return linalg::LinearCombination(0.5, u1, 0.5, u2);
  }
  if (method == M2tdMethod::kWeighted) return RowWeightedBlend(u1, u2);
  return RowSelect(u1, u2);
}

namespace {

Result<M2tdResult> M2tdDecomposeImpl(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const M2tdOptions& options) {
  M2TD_RETURN_IF_ERROR(
      ValidatePartitionAndRanks(partition, full_shape, options.ranks));
  const std::size_t num_modes = full_shape.size();
  const std::size_t k = partition.pivot_modes.size();

  M2tdResult result;
  obs::ObsSpan total_span("m2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("method", M2tdMethodName(options.method));
  total_span.Annotate("x1_nnz", subs.x1.NumNonZeros());
  total_span.Annotate("x2_nnz", subs.x2.NumNonZeros());

  // --- Sub-tensor decompositions + pivot-factor combination. The phase
  // timings in M2tdTimings are the spans' own elapsed times, so the trace
  // and the Table III split always agree. ---
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  std::vector<linalg::Matrix> factors(num_modes);

  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    M2TD_TRACE_SCOPE("combine_pivot_factor");
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix g1, tensor::ModeGram(subs.x1, i));
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix g2, tensor::ModeGram(subs.x2, i));
    // The two sub-tensors draw decorrelated sketches: offset x2's stream
    // past every original mode index so no (sub, mode) pair shares a seed.
    M2TD_ASSIGN_OR_RETURN(
        factors[mode],
        CombinePivotFactor(options.method, g1, g2, options.ranks[mode],
                           options.init.ForMode(mode),
                           options.init.ForMode(mode + num_modes)));
  }
  // A side mode's factor comes from its own sub-tensor's Gram, at rank
  // clamped to the mode length.
  for (int side = 0; side < 2; ++side) {
    const tensor::SparseTensor& sub = side == 0 ? subs.x1 : subs.x2;
    const std::vector<std::size_t>& side_modes =
        side == 0 ? partition.side1_modes : partition.side2_modes;
    for (std::size_t i = 0; i < side_modes.size(); ++i) {
      const std::size_t mode = side_modes[i];
      M2TD_ASSIGN_OR_RETURN(linalg::Matrix gram,
                            tensor::ModeGram(sub, k + i));
      M2TD_ASSIGN_OR_RETURN(
          factors[mode],
          linalg::GramFactor(
              gram, std::min<std::uint64_t>(options.ranks[mode], gram.rows()),
              options.init.ForMode(mode + side * num_modes)));
    }
  }
  result.timings.sub_decompose_seconds = sub_span.End();

  // --- JE-stitching. ---
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      tensor::SparseTensor join,
      JeStitch(subs, partition, full_shape, options.stitch));
  result.join_nnz = join.NumNonZeros();
  stitch_span.Annotate("join_nnz", result.join_nnz);
  result.timings.stitch_seconds = stitch_span.End();

  // --- Core recovery: G = J x_1 U^(1)T ... x_N U^(N)T. ---
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  // CoreFromSparse's first hop walks the join tensor's CSF index (the
  // join is freshly coalesced, so this is the build-and-use call).
  core_span.Annotate("csf", std::uint64_t{join.IsSorted() ? 1u : 0u});
  M2TD_ASSIGN_OR_RETURN(tensor::DenseTensor core,
                        tensor::CoreFromSparse(join, factors));
  core_span.Annotate("core_elements", core.NumElements());
  result.timings.core_seconds = core_span.End();

  result.tucker.core = std::move(core);
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<M2tdResult> M2tdDecompose(const SubEnsembles& subs,
                                 const PfPartition& partition,
                                 const std::vector<std::uint64_t>& full_shape,
                                 const M2tdOptions& options) {
  // Pooled kernels report cancellation by throwing through the void
  // ParallelFor channel; convert back to the Status this API promises.
  try {
    return M2tdDecomposeImpl(subs, partition, full_shape, options);
  } catch (const robust::CancelledError& error) {
    return error.ToStatus();
  }
}

}  // namespace m2td::core
