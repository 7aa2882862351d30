#include "core/dm2td.h"

#include <utility>

#include "core/dm2td_dist.h"
#include "core/dm2td_internal.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace m2td::core {

namespace {

using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::PartialCore;
using dm2td_internal::TensorCell;

/// Thread-backend implementation: the two MapReduce jobs on the
/// in-process engine, then the driver-side core assembly. The shared group
/// bodies never depend on the order reducers emit their records (see
/// dm2td_internal.h), so results are bit-identical at any num_workers —
/// and to the process backend.
Result<DM2tdResult> DecomposeThreadBackend(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const JobGeometry geometry =
      dm2td_internal::MakeGeometry(partition, full_shape);

  DM2tdResult result;
  obs::ObsSpan total_span("dm2td_decompose");
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("backend", "thread");

  const std::vector<TensorCell> all_cells =
      dm2td_internal::CollectAllCells(subs);

  // ---------- Phase 1: parallel sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose");
  const std::vector<std::uint64_t> shape1 = subs.x1.shape();
  const std::vector<std::uint64_t> shape2 = subs.x2.shape();
  mapreduce::JobSpec<TensorCell, int, TensorCell, GramPiece> phase1;
  phase1.num_workers = options.num_workers;
  phase1.retry = options.retry;
  phase1.mapper = [](const TensorCell& cell,
                     mapreduce::Emitter<int, TensorCell>* emitter) {
    emitter->Emit(cell.kappa, cell);
  };
  phase1.reducer = [&shape1, &shape2](const int& kappa,
                                      std::vector<TensorCell>& cells,
                                      std::vector<GramPiece>* out) {
    const Status built = dm2td_internal::BuildGramsForSub(
        kappa, kappa == 1 ? shape1 : shape2, cells, out);
    M2TD_CHECK(built.ok()) << built;
  };
  M2TD_ASSIGN_OR_RETURN(std::vector<GramPiece> gram_pieces,
                        mapreduce::RunJob(phase1, all_cells, &result.phase1));

  // Driver-side factor assembly from the distributed Grams (the per-mode
  // eigenproblems are tiny: mode-length squared).
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      dm2td_internal::AssembleFactors(std::move(gram_pieces), partition,
                                      full_shape, options));
  sub_span.End();

  // ---------- Phase 2: per-pivot core recovery. ----------
  obs::ObsSpan stitch_span("stitch");
  // Zero-join candidate sets are global; gather them driver-side.
  std::vector<std::uint64_t> cand1, cand2;
  if (options.stitch.zero_join) {
    dm2td_internal::GatherZeroJoinCandidates(all_cells, geometry, &cand1,
                                             &cand2);
  }
  M2TD_ASSIGN_OR_RETURN(
      const dm2td_internal::PivotCoreBuilder builder,
      dm2td_internal::PivotCoreBuilder::Create(
          geometry, factors, options.stitch.zero_join, cand1, cand2));

  mapreduce::JobSpec<TensorCell, std::uint64_t, TensorCell, PartialCore>
      phase2;
  phase2.num_workers = options.num_workers;
  phase2.retry = options.retry;
  phase2.mapper = [&geometry](
                      const TensorCell& cell,
                      mapreduce::Emitter<std::uint64_t, TensorCell>* emitter) {
    emitter->Emit(dm2td_internal::PivotKey(cell.idx, geometry.pivot_dims),
                  cell);
  };
  phase2.reducer = [&builder](const std::uint64_t& pivot_key,
                              std::vector<TensorCell>& cells,
                              std::vector<PartialCore>* out) {
    const Status built = builder.Build(pivot_key, cells, out);
    M2TD_CHECK(built.ok()) << built;
  };
  M2TD_ASSIGN_OR_RETURN(std::vector<PartialCore> parts,
                        mapreduce::RunJob(phase2, all_cells, &result.phase2));
  stitch_span.End();

  // ---------- Phase 3: core assembly. ----------
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  result.phase3.intermediate_pairs = parts.size();
  M2TD_ASSIGN_OR_RETURN(
      result.tucker.core,
      dm2td_internal::SumPartialCores(&parts, factors, &result.join_nnz));
  result.phase3.output_records = result.tucker.core.NumElements();
  core_span.Annotate("join_nnz", result.join_nnz);
  result.phase3.reduce_seconds = core_span.End();
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<DM2tdResult> DM2tdDecompose(const SubEnsembles& subs,
                                   const PfPartition& partition,
                                   const std::vector<std::uint64_t>&
                                       full_shape,
                                   const DM2tdOptions& options) {
  M2TD_RETURN_IF_ERROR(dm2td_internal::ValidateDm2tdArgs(
      subs, partition, full_shape, options));
  if (options.backend == DistBackend::kProcess) {
    return DM2tdDecomposeProcess(subs, partition, full_shape, options);
  }
  return DecomposeThreadBackend(subs, partition, full_shape, options);
}

}  // namespace m2td::core
