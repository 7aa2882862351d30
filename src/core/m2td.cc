#include "core/m2td.h"

#include <algorithm>

#include "core/dm2td_internal.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "tensor/ttm.h"

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

Status ValidateM2tdArgs(const SubEnsembles& subs,
                        const PfPartition& partition,
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
  if (!subs.x1.IsSorted() || !subs.x2.IsSorted()) {
    return Status::InvalidArgument("M2TD requires coalesced sub-tensors");
  }
  using dm2td_internal::ModeDims;
  if (subs.x1.shape() != ModeDims(full_shape, partition.SubTensorModes(1)) ||
      subs.x2.shape() != ModeDims(full_shape, partition.SubTensorModes(2))) {
    return Status::InvalidArgument(
        "M2TD sub-tensors must have the pivot extents, then their side's");
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
      ValidateM2tdArgs(subs, partition, full_shape, options.ranks));

  M2tdResult result;
  obs::ObsSpan total_span("m2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("method", M2tdMethodName(options.method));
  total_span.Annotate("x1_nnz", subs.x1.NumNonZeros());
  total_span.Annotate("x2_nnz", subs.x2.NumNonZeros());

  // --- Sub-tensor Grams, then the factor stage every M2TD path shares.
  // The phase timings in M2tdTimings are the spans' own elapsed times, so
  // the trace and the Table III split always agree. ---
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  std::vector<dm2td_internal::GramPiece> pieces;
  M2TD_RETURN_IF_ERROR(
      dm2td_internal::AppendSubTensorGrams(1, subs.x1, &pieces));
  M2TD_RETURN_IF_ERROR(
      dm2td_internal::AppendSubTensorGrams(2, subs.x2, &pieces));
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      dm2td_internal::AssembleFactors(std::move(pieces), partition,
                                      full_shape, options.method,
                                      options.ranks, options.init));
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
