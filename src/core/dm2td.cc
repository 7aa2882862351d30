#include "core/dm2td.h"

#include <array>
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

namespace m2td::core {

namespace {

using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::PartialCore;
using dm2td_internal::Rows;

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

/// Runs tasks [0, tasks) of one phase, one pool task each (pool region
/// "reduce_tasks", one "reduce_task" span per task, annotated with its
/// `records`). Every attempt checks cancellation and the
/// `mapreduce.reduce_task` failpoint before `body(t)`; an attempt that
/// fails or throws is retried under `retry`. Returns the first failed
/// task's Status.
Status RunTasks(std::size_t tasks, const robust::RetryPolicy& retry,
                const std::function<std::uint64_t(std::size_t)>& records,
                const std::function<Status(std::size_t)>& body) {
  constexpr char kFailpoint[] = "mapreduce.reduce_task";
  std::vector<Status> status(tasks);
  try {
    parallel::ParallelFor(
        0, tasks, 1,
        [&](std::uint64_t tb, std::uint64_t te) {
          for (std::size_t t = tb; t < te; ++t) {
            obs::ObsSpan task_span("reduce_task");
            task_span.Annotate("task", static_cast<std::int64_t>(t));
            task_span.Annotate("records", records(t));
            status[t] = robust::RetryStatusCall(
                retry, kFailpoint, [&]() -> Status {
                  try {
                    M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
                    M2TD_RETURN_IF_ERROR(robust::CheckFailpoint(kFailpoint));
                    return body(t);
                  } catch (...) {
                    return CurrentExceptionStatus("reduce_task " +
                                                  std::to_string(t));
                  }
                });
          }
        },
        "reduce_tasks");
  } catch (...) {
    // The region itself stopped (a fired cancel token skips its tasks).
    return CurrentExceptionStatus("reduce_tasks");
  }
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// One D-M2TD phase on the thread backend: `tasks` reduce tasks, each
/// appending its records to its own output through `body`, which starts
/// from an empty output on every attempt. Returns the outputs in task
/// order and fills `stats`; nothing is mapped or shuffled, so only
/// reduce_seconds is timed. `cells` is the phase's input record count, the
/// process backend's shuffled pairs.
template <typename Out>
Result<std::vector<Out>> RunPhase(
    std::size_t tasks, std::uint64_t cells, const robust::RetryPolicy& retry,
    const std::function<std::uint64_t(std::size_t)>& records,
    const std::function<Status(std::size_t, std::vector<Out>*)>& body,
    mapreduce::JobStats* stats) {
  obs::ObsSpan job_span("mapreduce_job", obs::ObsSpan::kAlwaysTime);
  job_span.Annotate("tasks", static_cast<std::int64_t>(tasks));
  job_span.Annotate("input_records", cells);
  obs::GetCounter("mapreduce.jobs").Add(1);
  std::vector<std::vector<Out>> outputs(tasks);
  M2TD_RETURN_IF_ERROR(
      RunTasks(tasks, retry, records, [&](std::size_t t) -> Status {
        outputs[t].clear();
        return body(t, &outputs[t]);
      }));
  std::vector<Out> merged;
  for (std::vector<Out>& part : outputs) {
    for (Out& record : part) merged.push_back(std::move(record));
  }
  obs::GetCounter("mapreduce.reduce_tasks").Add(tasks);
  obs::GetCounter("mapreduce.output_records").Add(merged.size());
  job_span.Annotate("output_records",
                    static_cast<std::uint64_t>(merged.size()));
  stats->reduce_seconds = job_span.End();
  stats->intermediate_pairs = cells;
  stats->output_records = merged.size();
  return merged;
}

/// Rows of coalesced `sub` whose pivot key lies in [keys.first,
/// keys.second): one run, since the pivot modes lead.
Rows PivotRows(const tensor::SparseTensor& sub, const JobGeometry& geometry,
               Rows keys) {
  auto first_row_at = [&](std::uint64_t key) {
    std::uint64_t lo = 0, hi = sub.NumNonZeros();
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (dm2td_internal::RowKey(sub, mid, 0, geometry.pivot_dims) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  return {first_row_at(keys.first), first_row_at(keys.second)};
}

/// Thread-backend implementation: the two phases as pool tasks over the
/// coalesced sub-tensors in place, then the driver-side core assembly.
/// Phase 1 runs one task per sub-tensor; phase 2 splits the pivot-key
/// space into `num_workers` contiguous ranges, each a run of rows on both
/// sides. The tasks run the process backend's group bodies
/// (dm2td_internal) on their groups' rows in input order, and those bodies
/// never depend on how groups are split among tasks, so results are
/// bit-identical at any num_workers — and to the process backend.
Result<DM2tdResult> DecomposeThreadBackend(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  const JobGeometry geometry =
      dm2td_internal::MakeGeometry(partition, full_shape);
  const tensor::SparseTensor* sides[2] = {&subs.x1, &subs.x2};
  const std::uint64_t cells = subs.x1.NumNonZeros() + subs.x2.NumNonZeros();

  DM2tdResult result;
  obs::ObsSpan total_span("dm2td_decompose");
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("backend", "thread");

  // ---------- Phase 1: parallel sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose");
  // An empty side has no Grams, as on the process backend.
  M2TD_ASSIGN_OR_RETURN(
      std::vector<GramPiece> gram_pieces,
      RunPhase<GramPiece>(
          2, cells, options.retry,
          [&](std::size_t s) { return sides[s]->NumNonZeros(); },
          [&](std::size_t s, std::vector<GramPiece>* out) -> Status {
            if (sides[s]->NumNonZeros() == 0) return Status::OK();
            return dm2td_internal::AppendSubTensorGrams(
                static_cast<int>(s) + 1, *sides[s], out);
          },
          &result.phase1));

  // Driver-side factor assembly from the Grams (the per-mode eigenproblems
  // are tiny: mode-length squared).
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      dm2td_internal::AssembleFactors(std::move(gram_pieces), partition,
                                      full_shape, options.method,
                                      options.ranks, {}));
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
  // Task w covers pivot keys [floor(P w / W), floor(P (w + 1) / W)) of the
  // P keys, computed without forming P w.
  const std::size_t workers = static_cast<std::size_t>(options.num_workers);
  std::uint64_t num_keys = 1;
  for (std::uint64_t d : geometry.pivot_dims) num_keys *= d;
  auto key_bound = [&](std::uint64_t w) {
    return num_keys / workers * w + num_keys % workers * w / workers;
  };
  std::vector<std::array<Rows, 2>> rows(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    for (int s = 0; s < 2; ++s) {
      rows[w][s] = PivotRows(*sides[s], geometry,
                             {key_bound(w), key_bound(w + 1)});
    }
  }
  M2TD_ASSIGN_OR_RETURN(
      std::vector<PartialCore> parts,
      RunPhase<PartialCore>(
          workers, cells, options.retry,
          [&](std::size_t w) {
            return (rows[w][0].second - rows[w][0].first) +
                   (rows[w][1].second - rows[w][1].first);
          },
          [&](std::size_t w, std::vector<PartialCore>* out) {
            return dm2td_internal::ReducePivotGroups(
                builder, geometry, subs.x1, rows[w][0], subs.x2, rows[w][1],
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
