#include "core/dm2td.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/dm2td_dist.h"
#include "core/dm2td_internal.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace m2td::core {

namespace {

using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::JoinCell;
using dm2td_internal::TensorCell;

/// Thread-backend implementation: the three phases on the in-process
/// MapReduce engine. The shared group bodies never depend on the order
/// reducers emit their records (see dm2td_internal.h), so results are
/// bit-identical at any num_workers — and to the process backend —
/// without re-sorting anything between phases.
Result<DM2tdResult> DecomposeThreadBackend(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const std::size_t num_modes = full_shape.size();
  const JobGeometry geometry =
      dm2td_internal::MakeGeometry(partition, full_shape);

  DM2tdResult result;
  obs::ObsSpan total_span("dm2td_decompose");
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("backend", "thread");

  std::vector<TensorCell> all_cells =
      dm2td_internal::CollectCells(subs.x1, 1);
  {
    std::vector<TensorCell> cells2 = dm2td_internal::CollectCells(subs.x2, 2);
    all_cells.insert(all_cells.end(),
                     std::make_move_iterator(cells2.begin()),
                     std::make_move_iterator(cells2.end()));
  }

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
  std::unordered_map<std::uint64_t, linalg::Matrix> grams;  // kappa*64+mode
  for (GramPiece& piece : gram_pieces) {
    grams[static_cast<std::uint64_t>(piece.kappa) * 64 + piece.sub_mode] =
        std::move(piece.gram);
  }
  M2TD_ASSIGN_OR_RETURN(std::vector<linalg::Matrix> factors,
                        dm2td_internal::AssembleFactors(grams, partition,
                                                        full_shape, options));
  sub_span.End();

  // ---------- Phase 2: parallel JE-stitching. ----------
  obs::ObsSpan stitch_span("stitch");
  // Zero-join candidate sets are global; gather them driver-side.
  std::vector<std::uint64_t> cand1, cand2;
  if (options.stitch.zero_join) {
    dm2td_internal::GatherZeroJoinCandidates(all_cells, geometry, &cand1,
                                             &cand2);
  }

  mapreduce::JobSpec<TensorCell, std::uint64_t, TensorCell, JoinCell> phase2;
  phase2.num_workers = options.num_workers;
  phase2.retry = options.retry;
  phase2.mapper = [&geometry](
                      const TensorCell& cell,
                      mapreduce::Emitter<std::uint64_t, TensorCell>* emitter) {
    emitter->Emit(dm2td_internal::PivotKey(cell.idx, geometry.pivot_dims),
                  cell);
  };
  const bool zero_join = options.stitch.zero_join;
  phase2.reducer = [&, zero_join](const std::uint64_t& pivot_key,
                                  std::vector<TensorCell>& cells,
                                  std::vector<JoinCell>* out) {
    dm2td_internal::JoinPivotGroup(pivot_key, cells, geometry, zero_join,
                                   cand1, cand2, out);
  };
  M2TD_ASSIGN_OR_RETURN(std::vector<JoinCell> join_cells,
                        mapreduce::RunJob(phase2, all_cells, &result.phase2));
  result.join_nnz = join_cells.size();
  stitch_span.Annotate("join_nnz", result.join_nnz);
  stitch_span.End();

  // ---------- Phase 3: one TTM job per mode. ----------
  obs::ObsSpan core_span("core_recovery");
  std::vector<std::uint64_t> current_shape = full_shape;
  for (std::size_t n = 0; n < num_modes; ++n) {
    obs::ObsSpan ttm_span("ttm_job");
    ttm_span.Annotate("mode", static_cast<std::uint64_t>(n));
    const linalg::Matrix& factor = factors[n];
    const std::size_t rank = factor.cols();

    // Strides over all modes except n, for the fiber key.
    std::vector<std::uint64_t> other_dims;
    std::vector<std::size_t> other_modes;
    for (std::size_t m = 0; m < num_modes; ++m) {
      if (m != n) {
        other_dims.push_back(current_shape[m]);
        other_modes.push_back(m);
      }
    }

    mapreduce::JobSpec<JoinCell, std::uint64_t,
                       std::pair<std::uint32_t, double>, JoinCell>
        ttm_job;
    ttm_job.num_workers = options.num_workers;
    ttm_job.retry = options.retry;
    ttm_job.mapper =
        [&, n](const JoinCell& cell,
               mapreduce::Emitter<std::uint64_t,
                                  std::pair<std::uint32_t, double>>* emitter) {
          emitter->Emit(
              dm2td_internal::Phase3FiberKey(cell, n, current_shape),
              {cell.idx[n], cell.value});
        };
    ttm_job.reducer =
        [&, n](const std::uint64_t& key,
               std::vector<std::pair<std::uint32_t, double>>& fiber,
               std::vector<JoinCell>* out) {
          dm2td_internal::ContractFiber(key, &fiber, factor, n, other_dims,
                                        other_modes, num_modes, out);
        };
    mapreduce::JobStats stats;
    M2TD_ASSIGN_OR_RETURN(join_cells,
                          mapreduce::RunJob(ttm_job, join_cells, &stats));
    result.phase3.map_seconds += stats.map_seconds;
    result.phase3.shuffle_seconds += stats.shuffle_seconds;
    result.phase3.reduce_seconds += stats.reduce_seconds;
    result.phase3.intermediate_pairs += stats.intermediate_pairs;
    result.phase3.output_records = stats.output_records;

    current_shape[n] = rank;
  }

  // Materialize the core.
  tensor::DenseTensor core(current_shape);
  for (const JoinCell& cell : join_cells) {
    core.at(cell.idx) += cell.value;
  }
  result.tucker.core = std::move(core);
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
