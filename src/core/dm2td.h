#ifndef M2TD_CORE_DM2TD_H_
#define M2TD_CORE_DM2TD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/m2td.h"
#include "core/pf_partition.h"
#include "robust/retry.h"
#include "tensor/tucker.h"
#include "util/result.h"

namespace m2td::mapreduce {

/// Per-phase timing and volume counters of a D-M2TD run, reported back to
/// the caller; the Table III experiment aggregates these across the three
/// phases.
struct JobStats {
  double map_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_seconds = 0.0;
  std::uint64_t intermediate_pairs = 0;
  std::uint64_t output_records = 0;

  double TotalSeconds() const {
    return map_seconds + shuffle_seconds + reduce_seconds;
  }
};

}  // namespace m2td::mapreduce

namespace m2td::core {

/// Execution backend for the D-M2TD MapReduce phases.
enum class DistBackend {
  /// In-process: the phase bodies run as thread-pool tasks over the
  /// coalesced sub-tensors in place, with no map tasks and no shuffle
  /// (dm2td.cc).
  kThread,
  /// Real worker processes (tools/m2td_worker) that dial the coordinator
  /// over TCP and shuffle through the durable io::ShuffleStore. Survives
  /// worker SIGKILL at any point and produces bit-identical results to
  /// kThread.
  kProcess,
};

/// A coordinator scheduling event, surfaced to tests via
/// DistProcessOptions::event_hook so chaos schedules ("SIGKILL the worker
/// that just received a p2 map task") are deterministic, not timing-based.
struct DistEvent {
  /// One of: "spawn", "assign", "done", "fail", "death", "lease_expired",
  /// "reassign", "map_reexec", "stage_done", "drain", "connect",
  /// "reconnect", "disconnect", "speculate", "speculate_won",
  /// "speculate_cancelled".
  std::string kind;
  /// Phase the event belongs to ("p1map", "p1red", "p2map", "p2red");
  /// empty for lifecycle events.
  std::string phase;
  int task = -1;
  int worker = -1;
  pid_t pid = -1;
};

/// Knobs of the multi-process backend.
struct DistProcessOptions {
  /// Path to the m2td_worker binary. Empty = $M2TD_WORKER_BIN, then
  /// "m2td_worker" / "../tools/m2td_worker" next to the current
  /// executable (see DefaultWorkerBinary in dm2td_dist.h).
  std::string worker_binary;
  /// Scratch directory for the durable shuffle. Empty = a fresh
  /// directory under the system temp dir, removed on success.
  std::string job_dir;
  /// Keep the job directory (shuffle blobs, worker obs exports) even on
  /// success — for debugging and for the bench's artifact trail.
  bool keep_job_dir = false;
  /// Worker heartbeat period. Each live worker sends a heartbeat frame
  /// at this cadence; the coordinator folds them into the span-listener
  /// feed the stall watchdog observes.
  double heartbeat_ms = 50.0;
  /// Task lease: a worker whose heartbeat goes silent this long is
  /// declared dead (SIGKILL + reap + task reassignment), and a task
  /// running longer than this is presumed wedged and reassigned the same
  /// way. Must comfortably exceed the longest legitimate task.
  double task_lease_ms = 30000.0;
  /// Test hook observing scheduling events, called inline from the
  /// coordinator loop. Null in production.
  std::function<void(const DistEvent&)> event_hook;

  /// The address the coordinator listens on; every worker attaches over
  /// TCP with m2td_worker --connect and says hello. Port 0 binds an
  /// ephemeral port (its actual value is what spawned workers are told
  /// to dial).
  std::string listen = "127.0.0.1:0";
  /// When false the coordinator forks nothing and waits for `num_workers`
  /// external workers to dial in — the remote-worker deployment. When
  /// true (default) it forks local workers that connect back over
  /// loopback and die with the coordinator.
  bool spawn_workers = true;
  /// Per-connection frame IO deadline: a read or write blocked this long
  /// surfaces kDeadlineExceeded instead of hanging on a half-open peer.
  double io_deadline_ms = 5000.0;
  /// Net fault specs (robust/netfault.h grammar) armed in the
  /// coordinator's transport before the run; empty = none.
  std::string net_faults;
  /// Net fault specs passed to spawned workers (--net_faults) so the
  /// worker-side transport misbehaves deterministically too.
  std::string worker_net_faults;
  /// How long a disconnected worker keeps redialing (capped seeded
  /// exponential backoff) before giving up, and how long the coordinator
  /// tolerates a dropped connection before the worker's heartbeat lease
  /// declares it dead anyway.
  double redial_ms = 10000.0;
  /// Speculative execution of stragglers (see DistSpeculationOptions).
  struct Speculation {
    bool enabled = false;
    /// A task becomes speculatable once its runtime exceeds
    /// max(floor_ms, multiplier * quantile(completed sibling runtimes)).
    double quantile = 0.75;
    double multiplier = 2.0;
    /// Minimum completed siblings in the stage before quantiles mean
    /// anything.
    int min_completed = 3;
    double floor_ms = 250.0;
  } speculation;
};

/// Options for the distributed decomposition.
struct DM2tdOptions {
  M2tdMethod method = M2tdMethod::kSelect;
  /// Target rank per original mode.
  std::vector<std::uint64_t> ranks;
  StitchOptions stitch;
  /// Number of workers — the paper's "servers" axis in Table III. Thread
  /// backend: phase-2 pool tasks, one per pivot-key range; process
  /// backend: worker processes. Never affects results.
  int num_workers = 4;
  /// Task-level retry policy applied to every phase: a failed task
  /// (failpoint fire, thrown exception, returned IOError/Internal) is
  /// re-run from its input up to
  /// `retry.max_retries` times. Defaults to no retries. The process
  /// backend additionally always replays tasks of dead workers —
  /// worker death is recovery, not a retry, and does not consume this
  /// budget.
  robust::RetryPolicy retry;
  /// Execution backend for the MapReduce phases.
  DistBackend backend = DistBackend::kThread;
  /// Process backend only: fixed task/shard count per phase, independent
  /// of num_workers, so the pivot-hash sharding (and therefore every
  /// intermediate record stream) is identical at any pool size. Never
  /// affects results.
  int num_shards = 8;
  DistProcessOptions process;
};

/// Process-backend scheduling statistics (all zero for kThread).
struct DistStats {
  int workers_spawned = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t tasks_reassigned = 0;
  std::uint64_t lease_expirations = 0;
  /// Tasks re-executed because a reader hit DataLoss on one of their
  /// committed files: map tasks whose shard segment a reducer read, and
  /// reduce tasks whose output the coordinator gathered (the phase-1 Grams
  /// and the phase-2 partial cores). Each one also emits a "map_reexec"
  /// DistEvent naming the producer.
  std::uint64_t map_reexecutions = 0;
  std::uint64_t task_retries = 0;
  /// Connections accepted / identities resumed within their lease after
  /// a redial / connections lost mid-run.
  std::uint64_t net_connects = 0;
  std::uint64_t net_reconnects = 0;
  std::uint64_t net_disconnects = 0;
  /// Speculative straggler execution: racing attempts launched, races a
  /// speculative attempt won, losing attempts cancelled.
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;
  std::uint64_t speculative_cancelled = 0;
  /// Workers that exited with the malformed-frame code
  /// (dm2td_tasks::kWorkerExitMalformedFrame).
  std::uint64_t malformed_frame_exits = 0;
  /// Human-readable details of abnormal worker exits, surfaced into the
  /// run report's exit_outcome detail ("worker 2 exited 5 (malformed
  /// frame)").
  std::vector<std::string> worker_exit_details;
};

/// Per-phase wall-clock and MapReduce statistics.
struct DM2tdResult {
  tensor::TuckerDecomposition tucker;
  std::uint64_t join_nnz = 0;
  /// Phase 1: parallel sub-tensor decomposition (Gram accumulation).
  mapreduce::JobStats phase1;
  /// Phase 2: per-pivot core recovery (shuffle on pivot configuration);
  /// each reducer emits one partial core per pivot of its shard.
  mapreduce::JobStats phase2;
  /// Phase 3: core assembly — the coordinator's gather (shuffle_seconds)
  /// and ascending-pivot sum (reduce_seconds) of the partial cores.
  /// intermediate_pairs counts partial cores, output_records core entries.
  mapreduce::JobStats phase3;
  DistStats dist;

  double TotalSeconds() const {
    return phase1.TotalSeconds() + phase2.TotalSeconds() +
           phase3.TotalSeconds();
  }
};

/// \brief D-M2TD (Section VI-D): distributed M2TD.
///
/// Phase 1 accumulates each sub-tensor's per-mode Gram matrices; the
/// driver turns Grams into (combined) factor matrices. Phase 2 groups the
/// cells of both sub-tensors by pivot configuration (a shuffle on the
/// process backend, row ranges in place on the thread backend); each
/// group recovers its pivot's share of the core
/// straight from the JE-stitching identity, without forming the join (see
/// dm2td_internal::PivotCoreBuilder). Phase 3 is core assembly: the driver
/// sums the per-pivot partial cores in ascending pivot key.
///
/// Backends: `options.backend` selects in-process threads (default) or
/// real worker processes (see DistBackend::kProcess). Results are
/// bit-identical across backends, worker counts, and shard counts: every
/// per-group body runs through the same shared code on its records in
/// global input order, and the partial cores are summed in one canonical
/// order.
///
/// Produces the same decomposition as M2tdDecompose up to floating-point
/// reassociation (Gram sums, and the factored core against the join's
/// mode-product chain: 1e-12 relative).
Result<DM2tdResult> DM2tdDecompose(const SubEnsembles& subs,
                                   const PfPartition& partition,
                                   const std::vector<std::uint64_t>&
                                       full_shape,
                                   const DM2tdOptions& options);

}  // namespace m2td::core

#endif  // M2TD_CORE_DM2TD_H_
