#include "core/dm2td.h"

#include <exception>
#include <functional>
#include <string>
#include <utility>

#include "core/dm2td_dist.h"
#include "core/dm2td_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "util/timer.h"

namespace m2td::core {

namespace {

using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::PartialCore;
using dm2td_internal::ShardSlices;

/// The Status of the exception being handled: the cancellation's own code
/// (which the retry layer never replays), Internal for anything else.
Status CurrentExceptionStatus(const std::string& where) {
  try {
    throw;
  } catch (const robust::CancelledError& e) {
    return e.ToStatus();
  } catch (const std::exception& e) {
    return Status::Internal(where + " threw: " + e.what());
  } catch (...) {
    return Status::Internal(where + " threw a non-standard exception");
  }
}

/// Runs tasks [0, workers) of one phase, one pool task each (`region`
/// labels the pool region, `span` each task, annotated with its
/// `records`). Every attempt checks cancellation and the `failpoint`
/// before `body(w)`; an attempt that fails or throws is retried under
/// `retry`. Returns the first failed task's Status.
Status RunTasks(std::size_t workers, const char* region, const char* span,
                const char* failpoint, const robust::RetryPolicy& retry,
                const std::function<std::uint64_t(std::size_t)>& records,
                const std::function<Status(std::size_t)>& body) {
  std::vector<Status> status(workers);
  try {
    parallel::ParallelFor(
        0, workers, 1,
        [&](std::uint64_t wb, std::uint64_t we) {
          for (std::size_t w = wb; w < we; ++w) {
            obs::ObsSpan task_span(span);
            task_span.Annotate("worker", static_cast<std::int64_t>(w));
            task_span.Annotate("records", records(w));
            status[w] = robust::RetryStatusCall(
                retry, failpoint, [&]() -> Status {
                  try {
                    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
                    M2TD_RETURN_IF_ERROR(robust::CheckFailpoint(failpoint));
                    return body(w);
                  } catch (...) {
                    return CurrentExceptionStatus(std::string(span) + " " +
                                                  std::to_string(w));
                  }
                });
          }
        },
        region);
  } catch (...) {
    // The region itself stopped (a fired cancel token skips its tasks).
    return CurrentExceptionStatus(region);
  }
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// One D-M2TD phase on the thread backend. Map task m routes split m of
/// the sub-tensors to the `num_workers` shards (dm2td_internal::
/// RouteSplit) and keeps its slices in memory; the shuffle assembles each
/// shard's input from them in map-task order (ConcatSlices); and
/// `num_workers` reduce tasks hand their input to `reduce`, which must
/// leave it unchanged, so a retried attempt starts from the same input.
/// Returns the outputs in reduce-task order and fills `stats`. Memory
/// beyond the outputs is one copy of the cells.
template <typename Out>
Result<std::vector<Out>> RunPhase(
    int phase, const SubEnsembles& subs, const JobGeometry& geometry,
    const DM2tdOptions& options,
    const std::function<Status(const ShardSlices&, std::vector<Out>*)>&
        reduce,
    mapreduce::JobStats* stats) {
  const std::size_t workers = static_cast<std::size_t>(options.num_workers);
  const std::uint64_t cells = subs.x1.NumNonZeros() + subs.x2.NumNonZeros();
  obs::ObsSpan job_span("mapreduce_job");
  job_span.Annotate("num_workers", static_cast<std::int64_t>(workers));
  job_span.Annotate("input_records", cells);
  obs::GetCounter("mapreduce.jobs").Add(1);
  Timer timer;

  obs::ObsSpan map_span("map");
  auto split = [&](const tensor::SparseTensor& sub, std::size_t w) {
    return dm2td_internal::SplitRange(sub.NumNonZeros(), options.num_workers,
                                      static_cast<int>(w));
  };
  std::vector<std::vector<ShardSlices>> routed(workers);
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "map_tasks", "map_task", "mapreduce.map_task", options.retry,
      [&](std::size_t w) {
        const auto [b1, e1] = split(subs.x1, w);
        const auto [b2, e2] = split(subs.x2, w);
        return (e1 - b1) + (e2 - b2);
      },
      [&](std::size_t w) -> Status {
        M2TD_ASSIGN_OR_RETURN(
            routed[w], dm2td_internal::RouteSplit(
                           phase, geometry, subs.x1, split(subs.x1, w),
                           subs.x2, split(subs.x2, w), workers));
        return Status::OK();
      }));
  map_span.End();
  obs::GetCounter("mapreduce.map_tasks").Add(workers);
  stats->map_seconds = timer.ElapsedSeconds();
  timer.Restart();

  obs::ObsSpan shuffle_span("shuffle");
  std::vector<ShardSlices> inputs(workers);
  for (std::size_t p = 0; p < workers; ++p) {
    std::vector<ShardSlices> parts(workers);
    for (std::size_t m = 0; m < workers; ++m) {
      parts[m] = std::move(routed[m][p]);
    }
    M2TD_ASSIGN_OR_RETURN(inputs[p],
                          dm2td_internal::ConcatSlices(std::move(parts)));
  }
  std::vector<std::vector<ShardSlices>>().swap(routed);
  shuffle_span.Annotate("intermediate_pairs", cells);
  shuffle_span.End();
  obs::GetCounter("mapreduce.intermediate_pairs").Add(cells);
  stats->shuffle_seconds = timer.ElapsedSeconds();
  stats->intermediate_pairs = cells;
  timer.Restart();

  obs::ObsSpan reduce_span("reduce");
  std::vector<std::vector<Out>> outputs(workers);
  M2TD_RETURN_IF_ERROR(RunTasks(
      workers, "reduce_tasks", "reduce_task", "mapreduce.reduce_task",
      options.retry,
      [&](std::size_t p) {
        return inputs[p].x1.NumNonZeros() + inputs[p].x2.NumNonZeros();
      },
      [&](std::size_t p) -> Status {
        outputs[p].clear();
        return reduce(inputs[p], &outputs[p]);
      }));
  std::vector<Out> merged;
  for (std::vector<Out>& part : outputs) {
    for (Out& record : part) merged.push_back(std::move(record));
  }
  reduce_span.End();
  obs::GetCounter("mapreduce.reduce_tasks").Add(workers);
  obs::GetCounter("mapreduce.output_records").Add(merged.size());
  job_span.Annotate("output_records",
                    static_cast<std::uint64_t>(merged.size()));
  stats->reduce_seconds = timer.ElapsedSeconds();
  stats->output_records = merged.size();
  return merged;
}

/// Thread-backend implementation: the two MapReduce phases as pool tasks,
/// then the driver-side core assembly. Each reduce task runs the same
/// group bodies as the process backend's (dm2td_internal), on its records
/// in input order, and those bodies never depend on the order reduce tasks
/// emit their records, so results are bit-identical at any num_workers —
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

  // ---------- Phase 1: parallel sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose");
  M2TD_ASSIGN_OR_RETURN(
      std::vector<GramPiece> gram_pieces,
      RunPhase<GramPiece>(
          1, subs, geometry, options,
          [](const ShardSlices& input, std::vector<GramPiece>* out) {
            return dm2td_internal::ReduceGramGroups(input, out);
          },
          &result.phase1));

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
    dm2td_internal::GatherZeroJoinCandidates(subs, geometry, &cand1, &cand2);
  }
  M2TD_ASSIGN_OR_RETURN(
      const dm2td_internal::PivotCoreBuilder builder,
      dm2td_internal::PivotCoreBuilder::Create(
          geometry, factors, options.stitch.zero_join, cand1, cand2));
  M2TD_ASSIGN_OR_RETURN(
      std::vector<PartialCore> parts,
      RunPhase<PartialCore>(
          2, subs, geometry, options,
          [&](const ShardSlices& input, std::vector<PartialCore>* out) {
            return dm2td_internal::ReducePivotGroups(builder, geometry, input,
                                                     out);
          },
          &result.phase2));
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
