#ifndef M2TD_CORE_DM2TD_H_
#define M2TD_CORE_DM2TD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/m2td.h"
#include "core/pf_partition.h"
#include "mapreduce/engine.h"
#include "tensor/tucker.h"
#include "util/result.h"

namespace m2td::core {

/// Execution backend for the three D-M2TD MapReduce phases.
enum class DistBackend {
  /// In-process thread engine (mapreduce/engine.h): tasks are pool jobs.
  kThread,
  /// Real worker processes (tools/m2td_worker) coordinated over pipes,
  /// shuffling through the durable io::ShuffleStore. Survives worker
  /// SIGKILL at any point and produces bit-identical results to kThread.
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
  /// Phase the event belongs to ("p1map", "p2red", "p3map_1", ...); empty
  /// for lifecycle events.
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

  /// Control-channel transport: "pipe" (default — workers are forked
  /// with their stdin/stdout on inherited pipes) or "socket" (the
  /// coordinator listens on `listen` and workers attach over TCP with
  /// m2td_worker --connect). Results are bit-identical either way.
  std::string transport = "pipe";
  /// Socket transport: the address the coordinator listens on. Port 0
  /// binds an ephemeral port (its actual value is what spawned workers
  /// are told to dial).
  std::string listen = "127.0.0.1:0";
  /// Socket transport: when false the coordinator forks nothing and
  /// waits for `num_workers` external workers to dial in — the remote-
  /// worker deployment. When true (default) it forks local workers that
  /// connect back over loopback.
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
  /// Socket transport: how long a disconnected worker keeps redialing
  /// (capped seeded exponential backoff) before giving up, and how long
  /// the coordinator tolerates a dropped connection before the worker's
  /// heartbeat lease declares it dead anyway.
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
  /// Number of map/reduce workers — the paper's "servers" axis in
  /// Table III. Thread backend: pool tasks; process backend: worker
  /// processes. Never affects results.
  int num_workers = 4;
  /// Task-level retry policy applied to every MapReduce phase (see
  /// mapreduce::JobSpec::retry). Defaults to no retries. The process
  /// backend additionally always replays tasks of dead workers —
  /// worker death is recovery, not a retry, and does not consume this
  /// budget.
  robust::RetryPolicy retry;
  /// Execution backend for the three phases.
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
  /// Upstream tasks re-executed because a reader hit DataLoss on one of
  /// their committed blobs: map tasks whose shard blob a reducer read,
  /// and reduce tasks whose data blob a phase-3 mapper read. Each one
  /// also emits a "map_reexec" DistEvent naming the producer.
  std::uint64_t map_reexecutions = 0;
  std::uint64_t task_retries = 0;
  /// Socket transport: connections accepted / identities resumed within
  /// their lease after a redial / connections lost mid-run.
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
  /// Phase 2: parallel JE-stitching (shuffle on pivot configuration).
  mapreduce::JobStats phase2;
  /// Phase 3: parallel tensor-matrix chain recovering the core (summed
  /// over the N per-mode jobs) — the dominant cost, per the paper.
  mapreduce::JobStats phase3;
  DistStats dist;

  double TotalSeconds() const {
    return phase1.TotalSeconds() + phase2.TotalSeconds() +
           phase3.TotalSeconds();
  }
};

/// \brief D-M2TD (Section VI-D): the three-phase distributed M2TD.
///
/// Phase 1 ships each sub-tensor's cells to a reducer that accumulates its
/// per-mode Gram matrices; the driver turns Grams into (combined) factor
/// matrices. Phase 2 shuffles cells of both sub-tensors by pivot
/// configuration and joins within each reduce group. Phase 3 runs one
/// MapReduce job per mode, each contracting the current tensor's fibers
/// with that mode's factor matrix, ending at the dense core.
///
/// Backends: `options.backend` selects in-process threads (default) or
/// real worker processes (see DistBackend::kProcess). Results are
/// bit-identical across backends, worker counts, and shard counts: every
/// per-group body runs through the same shared code and never depends on
/// the order its records arrive in (phase-3 fibers are ordered by the
/// contraction itself).
///
/// Produces the same decomposition as M2tdDecompose (up to floating-point
/// reassociation in the Gram sums).
Result<DM2tdResult> DM2tdDecompose(const SubEnsembles& subs,
                                   const PfPartition& partition,
                                   const std::vector<std::uint64_t>&
                                       full_shape,
                                   const DM2tdOptions& options);

}  // namespace m2td::core

#endif  // M2TD_CORE_DM2TD_H_
