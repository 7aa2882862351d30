#ifndef M2TD_CORE_DM2TD_TASKS_H_
#define M2TD_CORE_DM2TD_TASKS_H_

// The serializable task vocabulary of the multi-process D-M2TD backend,
// shared by the coordinator (dm2td_dist.cc) and the worker binary
// (tools/m2td_worker.cc). A task is a (phase, index, attempt) triple plus
// per-phase parameters; task bodies read their inputs from and commit
// their outputs to the durable io::ShuffleStore, so any task can be
// replayed on any worker after a death.
//
// Phase names: "p1map"/"p1red" (sub-tensor Grams) and "p2map"/"p2red"
// (per-pivot core recovery, sharded by pivot hash). Map task m of both
// phases reads split m of the job's cell file (fixed split count =
// shards, independent of worker count), routes its rows
// (dm2td_internal::RouteSplit) and commits one file holding a segment per
// reduce shard; reduce task r concatenates segment r of the committed map
// files in map-task order (ConcatSlices) — so every group sees the global
// input order — and runs the phase's reduce body, the thread backend's too.
// A p2red task emits one partial core per pivot of its shard; the
// coordinator gathers them and sums them in ascending pivot key.
// Determinism therefore never depends on which worker ran what.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dm2td_internal.h"
#include "io/shuffle_store.h"
#include "linalg/matrix.h"
#include "util/result.h"

namespace m2td::core::dm2td_tasks {

/// Environment knob (milliseconds): when set in a worker's environment,
/// every task sleeps this long between writing its attempt file and
/// committing it — a deterministic window for chaos tests to land a SIGKILL
/// "mid-shuffle-write".
inline constexpr char kChaosSleepEnv[] = "M2TD_DIST_CHAOS_SLEEP_MS";

/// Environment knob "<phase>:<index>:<ms>[:<max_attempt>]": the named
/// task sleeps `ms` milliseconds at its start when its attempt number is
/// <= max_attempt (default 0, i.e. only the first attempt) — a
/// deterministic straggler for speculative-execution tests. The sleep is
/// cancel-aware, so a coordinator cancel frame cuts it short.
inline constexpr char kStragglerEnv[] = "M2TD_DIST_STRAGGLER";

/// Exit codes of the m2td_worker binary, surfaced by the coordinator via
/// waitpid into DistStats::worker_exit_details and the run report.
enum WorkerExitCode {
  kWorkerExitOk = 0,
  /// Bad command line (no --connect) / failed arming of chaos specs.
  kWorkerExitBadInvocation = 2,
  /// Could not open the shuffle store or load the job config.
  kWorkerExitBadJob = 3,
  /// A received frame failed to decode; the worker logs the offending
  /// frame header (first bytes, hex) before exiting with this code.
  kWorkerExitMalformedFrame = 5,
  /// The first dial or a redial ran out of budget without attaching.
  kWorkerExitLostCoordinator = 6,
};

/// Human-readable meaning of a worker exit code ("malformed frame", ...).
const char* WorkerExitCodeName(int code);

/// Job-wide parameters, written once by the coordinator as
/// `<job_dir>/job.m2td` and loaded by every worker.
struct DistJobConfig {
  std::vector<std::uint64_t> full_shape, shape1, shape2;
  std::vector<std::size_t> pivot_modes, side1_modes, side2_modes;
  int shards = 0;
  bool zero_join = false;
};

Status SaveJobConfig(const std::string& path, const DistJobConfig& config);
/// IOError on a malformed file, including one shorter than a list's
/// count; memory stays bounded by the file's size whatever the counts say.
Result<DistJobConfig> LoadJobConfig(const std::string& path);

/// One task assignment as carried by the wire protocol.
struct TaskRequest {
  bool is_map = true;
  std::string phase;
  int index = 0;
  int attempt = 0;
};

/// "p1red" -> "p1map", "p2red" -> "p2map": the map phase a reduce phase
/// consumes.
std::string MapPhaseOf(const std::string& reduce_phase);

/// Job inputs the coordinator writes, one segmented file each: segment m
/// of the cells file is map split m of both sub-tensors (EncodeSlices), segment n of the factors file is
/// mode n's factor (written after phase 1), and the zero-join candidate
/// file holds the side-1 and side-2 key lists.
inline constexpr char kCellsFile[] = "input/cells";
inline constexpr char kFactorsFile[] = "input/factors";
inline constexpr char kCandidatesFile[] = "input/candidates";

/// Reads the output of the committed reduce task (`phase`, `task`). A
/// corrupt file is DataLoss tagged "[task <phase>:<task>]", naming the
/// producer the coordinator must re-execute.
Result<std::string> ReadReduceOutput(const io::ShuffleStore& store,
                                     const std::string& phase, int task);

/// Wire form of a task assignment ("task <is_map> <phase> <index>
/// <attempt>"), carried as one frame payload.
std::string EncodeTaskFrame(const TaskRequest& task);
Result<TaskRequest> DecodeTaskFrame(const std::string& frame);

// Little-endian binary record codecs for the shuffle segments. Decoders
// check every length prefix against the bytes that remain (without
// overflow) before sizing anything, and return IOError on truncation or
// an impossible count (a failed CRC check would normally catch
// corruption first).
//
// A shuffle segment (and a split of the cells file) is one ShardSlices:
// the u64 row counts of x1 and x2, then x1's index columns (uint32, one per
// mode of shape1) and its value column (f64), then x2's likewise. The
// arities come from the job's shape1/shape2, never from the bytes, and
// DecodeSlices range-checks every index through SparseTensor::FromArrays:
// a bad index, a short or over-long blob are all IOError.
std::string EncodeSlices(const tensor::SparseTensor& x1,
                         dm2td_internal::Rows rows1,
                         const tensor::SparseTensor& x2,
                         dm2td_internal::Rows rows2);
Result<dm2td_internal::ShardSlices> DecodeSlices(
    const std::string& bytes, const std::vector<std::uint64_t>& shape1,
    const std::vector<std::uint64_t>& shape2);
std::string EncodePartialCores(
    const std::vector<dm2td_internal::PartialCore>& parts);
Result<std::vector<dm2td_internal::PartialCore>> DecodePartialCores(
    const std::string& bytes);
std::string EncodeGramPieces(
    const std::vector<dm2td_internal::GramPiece>& pieces);
Result<std::vector<dm2td_internal::GramPiece>> DecodeGramPieces(
    const std::string& bytes);
std::string EncodeMatrix(const linalg::Matrix& matrix);
Result<linalg::Matrix> DecodeMatrix(const std::string& bytes);
std::string EncodeU64List(const std::vector<std::uint64_t>& values);
Result<std::vector<std::uint64_t>> DecodeU64List(const std::string& bytes);

/// Executes one task against the store: checks the config's shapes
/// against its partition (IOError), reads inputs, computes via the
/// shared dm2td_internal bodies, durably writes + commits its output file
/// (whose header records how many records the task emitted). DataLoss
/// from a corrupted map output read by a reducer carries a
/// "[task <phase>:<m>]" marker naming the producer (see
/// ShuffleStore::ReadSegment), so the coordinator re-executes it instead
/// of retrying the poisoned file.
Status RunDistTask(const io::ShuffleStore& store,
                   const DistJobConfig& config, const TaskRequest& task);

}  // namespace m2td::core::dm2td_tasks

#endif  // M2TD_CORE_DM2TD_TASKS_H_
