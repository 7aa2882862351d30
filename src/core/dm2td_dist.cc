#include "core/dm2td_dist.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/dm2td_internal.h"
#include "core/dm2td_tasks.h"
#include "io/shuffle_store.h"
#include "mapreduce/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/heartbeat.h"
#include "robust/netfault.h"
#include "util/logging.h"

namespace m2td::core {

namespace {

namespace fs = std::filesystem;
using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::PartialCore;
using dm2td_tasks::DistJobConfig;
using dm2td_tasks::TaskRequest;

struct WorkerProc {
  int id = -1;
  /// -1 for external workers (spawn_workers off).
  pid_t pid = -1;
  mapreduce::transport::Connection conn;
  /// The identity is live: its process (if spawned) has not been reaped
  /// and its heartbeat lease has not lapsed. Workers stay alive across
  /// connection drops — disconnect is not death.
  bool alive = false;
  /// Ever declared dead; a dead identity is never resurrected by a late
  /// hello.
  bool dead = false;
  bool connected = false;
  bool ever_connected = false;
  bool reaped = false;
  bool busy = false;
  /// Steady-clock micros of the current task's (first) assignment —
  /// straggler detection compares siblings against this.
  double assign_us = 0.0;
  TaskRequest current;
};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using TaskKey = std::pair<std::string, int>;  // (phase, index)

bool IsMapPhase(const std::string& phase) {
  return phase.size() >= 3 && phase.compare(phase.size() - 3, 3, "map") == 0;
}

/// The task (`phase`, `index`) at attempt 0.
TaskRequest MakeTask(const std::string& phase, int index) {
  return TaskRequest{IsMapPhase(phase), phase, index, 0};
}

/// One stage = `count` tasks of one phase (or just task `only`, when
/// set). A reduce stage reads the committed files of its map phase, so a
/// DataLoss verdict on one of them can be turned back into a re-execution
/// of its producer; a map stage reads only job inputs.
struct StagePlan {
  std::string phase;
  int count = 0;
  int only = -1;

  bool Runs(int index) const { return only < 0 || index == only; }
  int NumTasks() const { return only < 0 ? count : 1; }
  /// The phase whose committed files this stage reads ("" for none).
  std::string Upstream() const {
    return IsMapPhase(phase) ? "" : dm2td_tasks::MapPhaseOf(phase);
  }
};

/// The producer a DataLoss message names in its "[task <phase>:<m>]"
/// marker (see ShuffleStore::ReadSegment); index -1 when there is none.
TaskKey CulpritOf(const std::string& message) {
  const std::size_t open = message.rfind("[task ");
  const std::size_t close =
      open == std::string::npos ? std::string::npos : message.find(']', open);
  if (close == std::string::npos) return {"", -1};
  const std::string context = message.substr(open + 6, close - open - 6);
  const std::size_t colon = context.find(':');
  if (colon == std::string::npos) return {"", -1};
  return {context.substr(0, colon), std::atoi(context.c_str() + colon + 1)};
}

/// Per-stage scheduling state threaded through the frame handlers; the
/// network pump receives it as null outside any stage (attach window).
struct StageCtx {
  const StagePlan* plan = nullptr;
  std::deque<TaskRequest>* pending = nullptr;
  std::set<int>* done = nullptr;
  std::vector<std::pair<TaskRequest, TaskKey>>* blocked = nullptr;
  std::set<TaskKey>* reexec_inflight = nullptr;
  /// Runtimes (ms) of this stage's first-completed attempts — the
  /// straggler quantile's sample.
  std::vector<double>* completed_ms = nullptr;
  /// Keys with a speculative attempt launched, and that attempt's number.
  std::map<TaskKey, int>* spec_attempt = nullptr;
};

class Coordinator {
 public:
  Coordinator(const DM2tdOptions& options, const io::ShuffleStore& store,
              std::string job_dir, std::string worker_binary)
      : options_(options),
        store_(store),
        job_dir_(std::move(job_dir)),
        worker_binary_(std::move(worker_binary)) {}

  ~Coordinator() { KillAll(); }

  DistStats& stats() { return stats_; }

  /// Listens, forks the local workers (unless they are external), and
  /// waits until every worker has dialled in and said hello.
  Status SpawnWorkers() {
    obs::ObsSpan spawn_span("dist_spawn");
    const int count = options_.num_workers;
    workers_.resize(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) workers_[static_cast<std::size_t>(k)].id = k;
    M2TD_ASSIGN_OR_RETURN(
        listener_,
        mapreduce::transport::Listener::Listen(options_.process.listen));
    if (options_.process.spawn_workers) {
      for (int k = 0; k < count; ++k) {
        M2TD_RETURN_IF_ERROR(SpawnWorker(k));
      }
      stats_.workers_spawned = count;
    }
    return WaitForAttach();
  }

  Status RunStage(const StagePlan& plan) {
    obs::ObsSpan stage_span("dist_stage");
    stage_span.Annotate("phase", plan.phase);
    std::deque<TaskRequest> pending;
    for (int t = 0; t < plan.count; ++t) {
      if (!plan.Runs(t)) continue;
      TaskRequest task = MakeTask(plan.phase, t);
      task.attempt = NextAttempt(TaskKey{plan.phase, t});
      pending.push_back(std::move(task));
    }
    std::set<int> done;
    std::vector<std::pair<TaskRequest, TaskKey>> blocked;
    std::set<TaskKey> reexec_inflight;
    std::vector<double> completed_ms;
    std::map<TaskKey, int> spec_attempt;
    StageCtx ctx;
    ctx.plan = &plan;
    ctx.pending = &pending;
    ctx.done = &done;
    ctx.blocked = &blocked;
    ctx.reexec_inflight = &reexec_inflight;
    ctx.completed_ms = &completed_ms;
    ctx.spec_attempt = &spec_attempt;

    const double lease_ms = options_.process.task_lease_ms;
    const int poll_ms = static_cast<int>(std::clamp(
        options_.process.heartbeat_ms / 2.0, 2.0, 50.0));

    while (true) {
      // One liveness span per scheduling round: span opens feed the
      // process-wide span listener, which is what the stall watchdog
      // observes — worker heartbeats therefore keep the watchdog fed
      // even while the coordinator itself only waits.
      obs::ObsSpan beat_span("dist_heartbeat");

      const Status cancelled = robust::CheckCancelled();
      if (!cancelled.ok()) {
        Emit("drain", plan.phase, -1, -1, -1);
        Drain();
        return cancelled;
      }

      const bool stage_complete =
          static_cast<int>(done.size()) == plan.NumTasks() && blocked.empty();
      if (stage_complete) {
        pending.clear();
        bool any_busy = false;
        for (const WorkerProc& w : workers_) any_busy |= w.alive && w.busy;
        if (!any_busy) break;
      }

      // Assign pending tasks to idle attached workers.
      for (WorkerProc& w : workers_) {
        if (pending.empty()) break;
        if (!w.alive || !w.connected || w.busy) continue;
        TaskRequest task = pending.front();
        const Status sent = w.conn.WriteFrame(
            EncodeTaskFrame(task), options_.process.io_deadline_ms);
        if (!sent.ok()) {
          // The channel is gone; the task stays queued for someone else.
          HandleChannelLoss(w, &ctx);
          continue;
        }
        pending.pop_front();
        w.busy = true;
        w.current = std::move(task);
        w.assign_us = NowUs();
        lease_.Arm(w.id);
        Emit("assign", w.current.phase, w.current.index, w.id, w.pid);
      }

      if (pending.empty() && !stage_complete) MaybeSpeculate(ctx);

      if (CountAlive() == 0) {
        return Status::Internal("all " +
                                std::to_string(options_.num_workers) +
                                " workers died during phase " + plan.phase);
      }

      // Poll the listener, unidentified connections, and every attached
      // worker.
      std::vector<pollfd> fds;
      std::vector<int> fd_worker;  // worker id, or -1 for listener/pending
      fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      fd_worker.push_back(-1);
      for (const mapreduce::transport::Connection& p : pending_) {
        fds.push_back(pollfd{p.fd(), POLLIN, 0});
        fd_worker.push_back(-1);
      }
      for (const WorkerProc& w : workers_) {
        if (!w.alive || !w.connected) continue;
        fds.push_back(pollfd{w.conn.fd(), POLLIN, 0});
        fd_worker.push_back(w.id);
      }
      const int ready = ::poll(fds.data(),
                               static_cast<nfds_t>(fds.size()), poll_ms);
      if (ready < 0 && errno != EINTR) {
        return Status::IOError(std::string("coordinator poll failed: ") +
                               std::strerror(errno));
      }
      M2TD_RETURN_IF_ERROR(PumpNetwork(&ctx));
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fd_worker[i] < 0) continue;
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerProc& w = workers_[static_cast<std::size_t>(fd_worker[i])];
        if (!w.alive || !w.connected) continue;
        M2TD_RETURN_IF_ERROR(DrainWorker(w, &ctx));
      }

      // Disconnected spawned workers may have actually died — reap
      // promptly instead of waiting out the lease.
      for (WorkerProc& w : workers_) {
        if (w.alive && !w.connected) TryReap(w, &ctx);
      }

      // Lease policy: a silent heartbeat or an overrunning task both mean
      // the worker is gone or wedged — SIGKILL, reap, reassign. A
      // disconnected worker that redials in time never reaches
      // this point: its lease clock was resumed by the rebind.
      for (int id : hb_.Expired(lease_ms)) {
        WorkerProc& w = workers_[static_cast<std::size_t>(id)];
        if (!w.alive) continue;
        Emit("lease_expired", w.busy ? w.current.phase : plan.phase,
             w.busy ? w.current.index : -1, w.id, w.pid);
        stats_.lease_expirations++;
        obs::GetCounter("dist.lease_expired").Increment();
        DeclareDead(w, "death", &ctx);
      }
      for (int id : lease_.Expired(lease_ms)) {
        WorkerProc& w = workers_[static_cast<std::size_t>(id)];
        if (!w.alive || !w.busy) continue;
        Emit("lease_expired", w.current.phase, w.current.index, w.id, w.pid);
        stats_.lease_expirations++;
        obs::GetCounter("dist.lease_expired").Increment();
        DeclareDead(w, "death", &ctx);
      }

      // Reassignment-storm backstop.
      for (const auto& [key, count] : reassigned_) {
        if (count > kMaxReassignments) {
          return Status::Internal("task " + key.first + ":" +
                                  std::to_string(key.second) + " reassigned " +
                                  std::to_string(count) +
                                  " times; giving up");
        }
      }
    }
    Emit("stage_done", plan.phase, -1, -1, -1);
    return Status::OK();
  }

  /// Reads and decodes the committed output of every task of the reduce
  /// stage `plan`, in task order, concatenating the records. A DataLoss
  /// naming one of them re-executes that task as a one-task stage and
  /// reads it again — the culprit recovery worker-side readers get from
  /// HandleDataLoss.
  template <typename Record>
  Result<std::vector<Record>> GatherReduceOutputs(
      const StagePlan& plan,
      Result<std::vector<Record>> (*decode)(const std::string&)) {
    std::vector<Record> records;
    for (int r = 0; r < plan.count; ++r) {
      for (int reexecs = 0;; ++reexecs) {
        Result<std::string> bytes =
            dm2td_tasks::ReadReduceOutput(store_, plan.phase, r);
        if (bytes.ok()) {
          M2TD_ASSIGN_OR_RETURN(std::vector<Record> part, decode(*bytes));
          std::move(part.begin(), part.end(), std::back_inserter(records));
          break;
        }
        const TaskKey culprit = CulpritOf(bytes.status().message());
        if (bytes.status().code() != StatusCode::kDataLoss ||
            culprit != TaskKey{plan.phase, r} ||
            reexecs >= kMaxReassignments) {
          return bytes.status();
        }
        M2TD_LOG_WARNING() << "output of " << plan.phase << ":" << r
                           << " failed its integrity check; re-executing it";
        CountReexecution(culprit);
        StagePlan one = plan;
        one.only = r;
        M2TD_RETURN_IF_ERROR(RunStage(one));
      }
    }
    return records;
  }

  /// Graceful shutdown: quit frames, closed channels, bounded wait,
  /// SIGKILL stragglers.
  void Drain() {
    obs::ObsSpan drain_span("dist_drain");
    for (WorkerProc& w : workers_) {
      if (!w.alive) continue;
      if (w.connected) {
        (void)w.conn.WriteFrame("quit", 1000.0);
      }
      w.conn.Close();
      w.connected = false;
      if (w.pid < 0) CloseWorker(w);  // external: nothing to reap
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    // A worker exits a millisecond or two after its quit frame: poll with
    // a backoff that starts short and is capped, not a fixed long sleep.
    useconds_t backoff_us = 50;
    while (std::chrono::steady_clock::now() < deadline) {
      bool any = false;
      for (WorkerProc& w : workers_) {
        if (!w.alive) continue;
        int status = 0;
        const pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
        if (reaped == w.pid) {
          w.reaped = true;
          RecordExit(w, status);
          CloseWorker(w);
        } else {
          any = true;
        }
      }
      if (!any) return;
      ::usleep(backoff_us);
      backoff_us = std::min<useconds_t>(2 * backoff_us, 1000);
    }
    KillAll();
  }

 private:
  static constexpr int kMaxReassignments = 16;

  int CountAlive() const {
    int alive = 0;
    for (const WorkerProc& w : workers_) alive += w.alive ? 1 : 0;
    return alive;
  }

  void Emit(const char* kind, const std::string& phase, int task, int worker,
            pid_t pid) {
    if (!options_.process.event_hook) return;
    DistEvent event;
    event.kind = kind;
    event.phase = phase;
    event.task = task;
    event.worker = worker;
    event.pid = pid;
    options_.process.event_hook(event);
  }

  int NextAttempt(const TaskKey& key) { return attempts_[key]++; }

  Status SpawnWorker(int k) {
    std::vector<std::string> args;
    args.push_back(worker_binary_);
    args.push_back("--job_dir=" + job_dir_);
    args.push_back("--worker_id=" + std::to_string(k));
    args.push_back("--heartbeat_ms=" +
                   std::to_string(options_.process.heartbeat_ms));
    args.push_back("--trace_epoch_us=" +
                   std::to_string(obs::Tracer::NowMicros()));
    args.push_back("--connect=" + listener_.bound_address());
    args.push_back("--redial_ms=" +
                   std::to_string(options_.process.redial_ms));
    if (!options_.process.worker_net_faults.empty()) {
      args.push_back("--net_faults=" + options_.process.worker_net_faults);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t coordinator = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IOError(std::string("fork failed: ") +
                             std::strerror(errno));
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec. A spawned worker
      // must not outlive its coordinator (an external one keeps its redial
      // budget): the kernel SIGKILLs it when the forking thread dies, and
      // a coordinator that died before prctl took effect is caught by the
      // getppid check. The signal survives execv.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != coordinator) _exit(127);
      ::execv(worker_binary_.c_str(), argv.data());
      _exit(127);
    }

    WorkerProc& w = workers_[static_cast<std::size_t>(k)];
    w.id = k;
    w.pid = pid;
    w.alive = true;
    w.busy = false;
    hb_.Arm(k);
    Emit("spawn", "", -1, k, pid);
    return Status::OK();
  }

  /// Waits until every worker slot has attached (said hello) or, if
  /// spawned, died trying, before the pipeline starts assigning; a stage
  /// then fails at once if no worker is left.
  Status WaitForAttach() {
    const double budget_ms =
        std::max(options_.process.task_lease_ms, 1000.0);
    const double start_us = NowUs();
    while (true) {
      M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
      bool all = true;
      for (const WorkerProc& w : workers_) all &= w.ever_connected || w.dead;
      if (all) return Status::OK();
      if ((NowUs() - start_us) / 1000.0 > budget_ms) {
        int missing = 0;
        for (const WorkerProc& w : workers_) missing += !w.ever_connected;
        return Status::Internal(
            std::to_string(missing) + " of " +
            std::to_string(options_.num_workers) +
            " workers never attached to " + listener_.bound_address());
      }
      std::vector<pollfd> fds;
      fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      for (const mapreduce::transport::Connection& p : pending_) {
        fds.push_back(pollfd{p.fd(), POLLIN, 0});
      }
      const int ready =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
      if (ready < 0 && errno != EINTR) {
        return Status::IOError(std::string("attach poll failed: ") +
                               std::strerror(errno));
      }
      M2TD_RETURN_IF_ERROR(PumpNetwork(nullptr));
      for (WorkerProc& w : workers_) {
        if (w.alive && !w.connected) TryReap(w, nullptr);
      }
    }
  }

  /// Accepts pending sockets and binds the ones that have said hello.
  Status PumpNetwork(StageCtx* ctx) {
    while (true) {
      Result<mapreduce::transport::Connection> accepted = listener_.Accept();
      if (!accepted.ok()) {
        if (accepted.status().code() == StatusCode::kNotFound) break;
        return accepted.status();
      }
      pending_.push_back(std::move(*accepted));
    }
    for (auto it = pending_.begin(); it != pending_.end();) {
      std::vector<std::string> frames;
      const Result<bool> open = it->PollFrames(&frames);
      int bound_id = -1;
      bool reject = false;
      std::size_t next_frame = 0;
      for (; next_frame < frames.size(); ++next_frame) {
        std::istringstream in(frames[next_frame]);
        std::string verb;
        int id = -1;
        in >> verb >> id;
        if (verb != "hello" || id < 0 ||
            id >= static_cast<int>(workers_.size())) {
          reject = true;
          break;
        }
        if (!BindConnection(id, std::move(*it))) {
          reject = true;
          break;
        }
        bound_id = id;
        ++next_frame;
        break;
      }
      if (bound_id >= 0) {
        WorkerProc& w = workers_[static_cast<std::size_t>(bound_id)];
        for (; next_frame < frames.size(); ++next_frame) {
          M2TD_RETURN_IF_ERROR(HandleFrame(w, frames[next_frame], ctx));
        }
        it = pending_.erase(it);
        if (w.busy && w.connected) {
          // Re-send the in-flight assignment: the worker either still
          // runs it (duplicate, ignored) or lost it with the connection.
          (void)w.conn.WriteFrame(EncodeTaskFrame(w.current),
                                  options_.process.io_deadline_ms);
        }
      } else if (reject || !open.ok() || !*open) {
        it->Close();
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    return Status::OK();
  }

  /// Adopts `conn` as worker `id`'s channel; false when the identity must
  /// not come back (already declared dead, or its lease lapsed).
  bool BindConnection(int id, mapreduce::transport::Connection conn) {
    WorkerProc& w = workers_[static_cast<std::size_t>(id)];
    const double lease_ms = options_.process.task_lease_ms;
    if (w.dead) {
      (void)conn.WriteFrame("quit", 100.0);
      conn.Close();
      return false;
    }
    if (!w.alive) {
      // First attach of an external worker: register the identity.
      w.alive = true;
      hb_.Arm(id);
    } else if (!hb_.ResumeWithinLease(id, lease_ms)) {
      // Beyond the lease: the expiry sweep owns this identity's fate.
      conn.Close();
      return false;
    }
    conn.set_peer("worker" + std::to_string(id));
    w.conn = std::move(conn);
    w.connected = true;
    if (w.ever_connected) {
      stats_.net_reconnects++;
      obs::GetCounter("dist.net.reconnects").Increment();
      Emit("reconnect", w.busy ? w.current.phase : "",
           w.busy ? w.current.index : -1, w.id, w.pid);
    } else {
      w.ever_connected = true;
      stats_.net_connects++;
      Emit("connect", "", -1, w.id, w.pid);
    }
    return true;
  }

  /// Drains every frame the worker's channel has buffered; channel loss
  /// is a disconnect.
  Status DrainWorker(WorkerProc& w, StageCtx* ctx) {
    std::vector<std::string> frames;
    const Result<bool> open = w.conn.PollFrames(&frames);
    for (const std::string& frame : frames) {
      M2TD_RETURN_IF_ERROR(HandleFrame(w, frame, ctx));
    }
    if (!open.ok() || !*open) {
      if (w.alive) HandleChannelLoss(w, ctx);
    }
    return Status::OK();
  }

  /// The control channel to `w` broke. The worker stays alive under its
  /// heartbeat lease and may redial (its in-flight task stays leased to
  /// it, not reassigned).
  void HandleChannelLoss(WorkerProc& w, StageCtx* ctx) {
    if (!w.connected) return;
    w.conn.Close();
    w.connected = false;
    stats_.net_disconnects++;
    obs::GetCounter("dist.net.disconnects").Increment();
    Emit("disconnect", w.busy ? w.current.phase : "",
         w.busy ? w.current.index : -1, w.id, w.pid);
    // If the process is actually gone, don't wait out the lease.
    TryReap(w, ctx);
  }

  /// Non-blocking reap of a spawned worker; on real exit the identity is
  /// dead immediately and its exit status is recorded.
  void TryReap(WorkerProc& w, StageCtx* ctx) {
    if (w.pid < 0 || w.reaped || !w.alive) return;
    int status = 0;
    if (::waitpid(w.pid, &status, WNOHANG) != w.pid) return;
    w.reaped = true;
    RecordExit(w, status);
    DeclareDead(w, "death", ctx);
  }

  /// Folds a worker's wait status into the stats the run report surfaces
  /// (satellite of the malformed-frame exit path).
  void RecordExit(WorkerProc& w, int status) {
    if (!WIFEXITED(status) || WEXITSTATUS(status) == 0) return;
    const int code = WEXITSTATUS(status);
    if (code == dm2td_tasks::kWorkerExitMalformedFrame) {
      stats_.malformed_frame_exits++;
    }
    stats_.worker_exit_details.push_back(
        "worker " + std::to_string(w.id) + " exited " + std::to_string(code) +
        " (" + dm2td_tasks::WorkerExitCodeName(code) + ")");
    M2TD_LOG_WARNING() << "m2td_worker " << w.id << " exited " << code << " ("
                       << dm2td_tasks::WorkerExitCodeName(code) << ")";
  }

  void CloseWorker(WorkerProc& w) {
    w.conn.Close();
    w.connected = false;
    w.alive = false;
    w.busy = false;
    hb_.Disarm(w.id);
    lease_.Disarm(w.id);
  }

  /// SIGKILL + reap + requeue the worker's in-flight task. Death replay
  /// is recovery, not a retry: it never consumes the retry budget.
  void DeclareDead(WorkerProc& w, const char* kind, StageCtx* ctx) {
    if (w.pid >= 0 && !w.reaped) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.reaped = true;
      RecordExit(w, status);
    }
    const bool was_busy = w.busy;
    TaskRequest task = w.current;
    CloseWorker(w);
    w.dead = true;
    stats_.worker_deaths++;
    obs::GetCounter("dist.worker_deaths").Increment();
    Emit(kind, was_busy ? task.phase : "", was_busy ? task.index : -1, w.id,
         w.pid);
    if (was_busy && ctx != nullptr) RequeueIfNeeded(std::move(task), ctx);
  }

  /// Requeues a dead worker's task at a fresh attempt — unless the stage
  /// already has its result, or a racing sibling attempt is still running
  /// (speculation makes both possible).
  void RequeueIfNeeded(TaskRequest task, StageCtx* ctx) {
    const TaskKey key{task.phase, task.index};
    if (task.phase == ctx->plan->phase &&
        ctx->done->count(task.index) != 0) {
      return;
    }
    for (const WorkerProc& o : workers_) {
      if (o.busy && o.current.phase == task.phase &&
          o.current.index == task.index) {
        return;
      }
    }
    reassigned_[key]++;
    task.attempt = NextAttempt(key);
    Emit("reassign", task.phase, task.index, -1, -1);
    ctx->pending->push_front(std::move(task));
    stats_.tasks_reassigned++;
    obs::GetCounter("dist.tasks_reassigned").Increment();
  }

  /// Launches racing attempts for stage tasks whose runtime exceeds the
  /// configured quantile of completed siblings. First committed attempt
  /// wins; the commit is atomic and both attempts produce identical
  /// bytes, so the race never affects results.
  void MaybeSpeculate(StageCtx& ctx) {
    const auto& spec = options_.process.speculation;
    if (!spec.enabled) return;
    if (static_cast<int>(ctx.completed_ms->size()) < spec.min_completed) {
      return;
    }
    std::vector<double> sorted = *ctx.completed_ms;
    std::sort(sorted.begin(), sorted.end());
    const double q = std::clamp(spec.quantile, 0.0, 1.0);
    const double quantile_ms =
        sorted[static_cast<std::size_t>(q * (sorted.size() - 1))];
    const double threshold_ms =
        std::max(spec.floor_ms, spec.multiplier * quantile_ms);
    for (WorkerProc& w : workers_) {
      if (!w.alive || !w.busy) continue;
      if (w.current.phase != ctx.plan->phase) continue;
      const TaskKey key{w.current.phase, w.current.index};
      if (ctx.done->count(w.current.index) != 0 ||
          ctx.spec_attempt->count(key) != 0) {
        continue;
      }
      if ((NowUs() - w.assign_us) / 1000.0 <= threshold_ms) continue;
      WorkerProc* idle = nullptr;
      for (WorkerProc& v : workers_) {
        if (v.alive && v.connected && !v.busy && v.id != w.id) {
          idle = &v;
          break;
        }
      }
      if (idle == nullptr) return;
      TaskRequest task = w.current;
      task.attempt = NextAttempt(key);
      const Status sent = idle->conn.WriteFrame(
          EncodeTaskFrame(task), options_.process.io_deadline_ms);
      if (!sent.ok()) {
        HandleChannelLoss(*idle, &ctx);
        continue;
      }
      idle->busy = true;
      idle->current = std::move(task);
      idle->assign_us = NowUs();
      lease_.Arm(idle->id);
      (*ctx.spec_attempt)[key] = idle->current.attempt;
      stats_.speculative_launched++;
      obs::GetCounter("dist.speculative_launched").Increment();
      Emit("speculate", key.first, key.second, idle->id, idle->pid);
    }
  }

  /// The winner of (phase, index) just reported: cancel every other
  /// attempt still in flight.
  void CancelLosers(const std::string& phase, int index,
                    const WorkerProc& winner) {
    for (WorkerProc& o : workers_) {
      if (o.id == winner.id || !o.busy || !o.connected) continue;
      if (o.current.phase != phase || o.current.index != index) continue;
      (void)o.conn.WriteFrame("cancel " + phase + " " +
                                  std::to_string(index) + " " +
                                  std::to_string(o.current.attempt),
                              options_.process.io_deadline_ms);
      stats_.speculative_cancelled++;
      obs::GetCounter("dist.speculative_cancelled").Increment();
      Emit("speculate_cancelled", phase, index, o.id, o.pid);
    }
  }

  Status HandleFrame(WorkerProc& w, const std::string& frame,
                     StageCtx* ctx) {
    std::istringstream in(frame.substr(0, frame.find('\n')));
    std::string verb;
    in >> verb;
    if (verb == "hb" || verb == "hello") {
      hb_.Beat(w.id);
      stats_.heartbeats++;
      obs::GetCounter("dist.heartbeats").Increment();
      return Status::OK();
    }
    if (ctx == nullptr) {
      // Attach window: task traffic cannot exist yet; drop defensively.
      return Status::OK();
    }
    const StagePlan& plan = *ctx->plan;
    if (verb == "done") {
      std::string phase;
      int index = 0, attempt = 0;
      if (!(in >> phase >> index >> attempt)) {
        return Status::Internal("malformed done frame '" + frame + "'");
      }
      const double elapsed_ms = (NowUs() - w.assign_us) / 1000.0;
      w.busy = false;
      lease_.Disarm(w.id);
      Emit("done", phase, index, w.id, w.pid);
      if (phase == plan.phase && plan.Runs(index)) {
        const bool first = ctx->done->insert(index).second;
        if (first) {
          ctx->completed_ms->push_back(elapsed_ms);
          const TaskKey key{phase, index};
          auto spec = ctx->spec_attempt->find(key);
          if (spec != ctx->spec_attempt->end()) {
            if (attempt == spec->second) {
              stats_.speculative_won++;
              obs::GetCounter("dist.speculative_won").Increment();
              Emit("speculate_won", phase, index, w.id, w.pid);
            }
            CancelLosers(phase, index, w);
          }
        }
        return Status::OK();
      }
      // A re-executed upstream task finished: unblock its dependents.
      const TaskKey culprit{phase, index};
      ctx->reexec_inflight->erase(culprit);
      auto it = ctx->blocked->begin();
      while (it != ctx->blocked->end()) {
        if (it->second == culprit) {
          TaskRequest task = std::move(it->first);
          task.attempt = NextAttempt(TaskKey{task.phase, task.index});
          ctx->pending->push_back(std::move(task));
          it = ctx->blocked->erase(it);
        } else {
          ++it;
        }
      }
      return Status::OK();
    }
    if (verb == "fail") {
      std::string phase;
      int index = 0, attempt = 0, code = 0;
      if (!(in >> phase >> index >> attempt >> code)) {
        return Status::Internal("malformed fail frame '" + frame + "'");
      }
      const std::size_t newline = frame.find('\n');
      const std::string message =
          newline == std::string::npos ? "" : frame.substr(newline + 1);
      w.busy = false;
      lease_.Disarm(w.id);
      Emit("fail", phase, index, w.id, w.pid);
      const Status failure(static_cast<StatusCode>(code), message);

      // A cancelled speculative loser acknowledging its cancel, or a
      // stale attempt of a task the stage already has: just free the
      // worker.
      if (robust::IsCancellation(failure)) return Status::OK();
      if (phase == plan.phase && ctx->done->count(index) != 0) {
        return Status::OK();
      }

      if (failure.code() == StatusCode::kDataLoss) {
        return HandleDataLoss(phase, index, message, ctx, failure);
      }
      // Transient task failure: consumes the per-task retry budget.
      const TaskKey key{phase, index};
      if (robust::IsRetryable(failure) &&
          retries_[key] < options_.retry.max_retries) {
        retries_[key]++;
        stats_.task_retries++;
        obs::GetCounter("dist.task_retries").Increment();
        TaskRequest task = MakeTask(phase, index);
        task.attempt = NextAttempt(key);
        ctx->pending->push_back(std::move(task));
        return Status::OK();
      }
      return failure;
    }
    return Status::Internal("unknown worker frame '" + frame + "'");
  }

  /// A task hit a corrupt committed file of the stage's upstream phase.
  /// The error names its producer in a "[task <phase>:<m>]" marker:
  /// re-execute that task (its fresh commit atomically replaces the
  /// poisoned one) and hold the reader until it lands — never retry the
  /// poisoned bytes.
  Status HandleDataLoss(const std::string& phase, int index,
                        const std::string& message, StageCtx* ctx,
                        const Status& failure) {
    const StagePlan& plan = *ctx->plan;
    const TaskKey culprit = CulpritOf(message);
    if (culprit.second < 0 || culprit.first.empty() ||
        culprit.first != plan.Upstream()) {
      // No replayable producer (job input file, or unparseable): the data
      // is gone for good.
      return failure;
    }
    M2TD_LOG_WARNING() << "shuffle file of " << culprit.first << ":"
                       << culprit.second
                       << " failed its integrity check; re-executing it ("
                       << phase << ":" << index << " held)";
    ctx->blocked->push_back({MakeTask(phase, index), culprit});
    if (ctx->reexec_inflight->insert(culprit).second) {
      // The poisoned file is deliberately left in place: other readers
      // still need a committed file (their own segments are fine, and
      // removing it would fail them with NotFound). The re-executed
      // attempt's commit renames over it; a reader that already opened
      // it keeps a consistent view through its descriptor.
      TaskRequest task = MakeTask(culprit.first, culprit.second);
      task.attempt = NextAttempt(culprit);
      ctx->pending->push_front(std::move(task));
      CountReexecution(culprit);
    }
    return Status::OK();
  }

  void CountReexecution(const TaskKey& culprit) {
    stats_.map_reexecutions++;
    obs::GetCounter("dist.map_reexecutions").Increment();
    Emit("map_reexec", culprit.first, culprit.second, -1, -1);
  }

  void KillAll() {
    for (WorkerProc& w : workers_) {
      if (!w.alive) continue;
      if (w.pid >= 0 && !w.reaped) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.reaped = true;
      }
      CloseWorker(w);
    }
    for (mapreduce::transport::Connection& p : pending_) p.Close();
    pending_.clear();
    listener_.Close();
  }

  const DM2tdOptions& options_;
  const io::ShuffleStore& store_;
  std::string job_dir_;
  std::string worker_binary_;
  std::vector<WorkerProc> workers_;
  mapreduce::transport::Listener listener_;
  /// Accepted sockets that have not yet identified themselves ("hello").
  std::vector<mapreduce::transport::Connection> pending_;
  robust::HeartbeatMonitor hb_;     // worker heartbeats
  robust::HeartbeatMonitor lease_;  // in-flight task leases
  DistStats stats_;
  std::map<TaskKey, int> attempts_;
  std::map<TaskKey, int> reassigned_;
  std::map<TaskKey, int> retries_;
};

// ----------------------------------------------------- input preparation

/// The cells file: segment m holds split m of both sub-tensors.
Status WriteCellSplits(const io::ShuffleStore& store, const SubEnsembles& subs,
                       int splits) {
  return store.WriteFile(
      dm2td_tasks::kCellsFile, static_cast<std::size_t>(splits),
      [&](std::size_t m) {
        const int split = static_cast<int>(m);
        return dm2td_tasks::EncodeSlices(
            subs.x1,
            dm2td_internal::SplitRange(subs.x1.NumNonZeros(), splits, split),
            subs.x2,
            dm2td_internal::SplitRange(subs.x2.NumNonZeros(), splits, split));
      });
}

// ------------------------------------------------------ worker obs merge

/// Folds `worker<k>.metrics.json` counter values into this process's
/// registry (minimal scan of the compact JSON WriteMetricsJson emits).
void MergeWorkerCounters(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t begin = json.find("\"counters\":{");
  if (begin == std::string::npos) return;
  std::size_t pos = begin + 12;
  const std::size_t end = json.find('}', pos);
  while (pos < end) {
    const std::size_t key_open = json.find('"', pos);
    if (key_open == std::string::npos || key_open >= end) break;
    const std::size_t key_close = json.find('"', key_open + 1);
    if (key_close == std::string::npos || key_close >= end) break;
    const std::string name = json.substr(key_open + 1,
                                         key_close - key_open - 1);
    const std::size_t colon = json.find(':', key_close);
    if (colon == std::string::npos || colon >= end) break;
    const std::uint64_t value = std::strtoull(
        json.c_str() + colon + 1, nullptr, 10);
    if (value > 0) obs::GetCounter(name).Add(value);
    pos = json.find(',', colon);
    if (pos == std::string::npos) break;
    ++pos;
  }
}

/// Re-records `worker<k>.spans.tsv` into the coordinator's tracer on a
/// per-worker thread-id band, so one merged Chrome trace shows every
/// worker as its own track group (see docs/OBSERVABILITY.md).
void MergeWorkerSpans(const std::string& path, int worker_id) {
  if (!obs::TracingEnabled()) return;
  std::ifstream in(path);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    obs::SpanRecord record;
    std::uint32_t tid = 0;
    if (!(std::getline(fields, record.name, '\t') &&
          (fields >> record.start_us >> record.duration_us >>
           record.cpu_us >> tid >> record.depth))) {
      continue;
    }
    record.thread_id =
        1000 + static_cast<std::uint32_t>(worker_id) * 16 + (tid % 16);
    obs::Tracer::Get().Record(std::move(record));
  }
}

void MergeWorkerObs(const std::string& job_dir, int workers) {
  for (int k = 0; k < workers; ++k) {
    const std::string base = job_dir + "/worker" + std::to_string(k);
    MergeWorkerCounters(base + ".metrics.json");
    MergeWorkerSpans(base + ".spans.tsv", k);
  }
}

// --------------------------------------------------------- the pipeline

Result<DM2tdResult> RunPipeline(Coordinator& coord,
                                const io::ShuffleStore& store,
                                const PfPartition& partition,
                                const std::vector<std::uint64_t>& full_shape,
                                const DM2tdOptions& options,
                                std::uint64_t num_cells) {
  const int shards = options.num_shards;
  DM2tdResult result;

  obs::ObsSpan total_span("dm2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("num_shards", static_cast<std::int64_t>(shards));
  total_span.Annotate("backend", "process");

  // Map stage "p<n>map", then reduce stage "p<n>red", timed into `stats`.
  auto run_phase = [&](const std::string& n, mapreduce::JobStats* stats) {
    {
      obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
      M2TD_RETURN_IF_ERROR(coord.RunStage({"p" + n + "map", shards}));
      stats->map_seconds = map_span.End();
    }
    obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
    M2TD_RETURN_IF_ERROR(coord.RunStage({"p" + n + "red", shards}));
    stats->reduce_seconds = reduce_span.End();
    stats->intermediate_pairs = num_cells;
    return Status::OK();
  };

  // ---------- Phase 1: parallel sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  M2TD_RETURN_IF_ERROR(run_phase("1", &result.phase1));
  // Factors are assembled driver-side and published for the phase-2
  // reducers.
  obs::ObsSpan gather1_span("dist_gather", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(std::vector<GramPiece> pieces,
                        coord.GatherReduceOutputs<GramPiece>(
                            {"p1red", shards}, dm2td_tasks::DecodeGramPieces));
  result.phase1.output_records = pieces.size();
  M2TD_ASSIGN_OR_RETURN(
      std::vector<linalg::Matrix> factors,
      dm2td_internal::AssembleFactors(std::move(pieces), partition,
                                      full_shape, options.method,
                                      options.ranks, {}));
  M2TD_RETURN_IF_ERROR(store.WriteFile(
      dm2td_tasks::kFactorsFile, factors.size(),
      [&](std::size_t n) { return dm2td_tasks::EncodeMatrix(factors[n]); }));
  result.phase1.shuffle_seconds = gather1_span.End();
  sub_span.End();

  // ---------- Phase 2: per-pivot core recovery. ----------
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  M2TD_RETURN_IF_ERROR(run_phase("2", &result.phase2));
  stitch_span.End();

  // ---------- Phase 3: core assembly. ----------
  // The coordinator gathers every pivot's partial core and sums them in
  // ascending pivot key.
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  obs::ObsSpan gather_span("dist_gather", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      std::vector<PartialCore> parts,
      coord.GatherReduceOutputs<PartialCore>({"p2red", shards},
                                             dm2td_tasks::DecodePartialCores));
  result.phase3.shuffle_seconds = gather_span.End();
  result.phase2.output_records = parts.size();
  result.phase3.intermediate_pairs = parts.size();
  obs::ObsSpan sum_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(
      result.tucker.core,
      dm2td_internal::SumPartialCores(&parts, factors, &result.join_nnz));
  result.phase3.reduce_seconds = sum_span.End();
  result.phase3.output_records = result.tucker.core.NumElements();
  core_span.Annotate("join_nnz", result.join_nnz);
  result.tucker.factors = std::move(factors);
  return result;
}

}  // namespace

Result<std::string> DefaultWorkerBinary(const std::string& configured) {
  if (!configured.empty()) {
    if (fs::exists(configured)) return configured;
    return Status::NotFound("worker binary '" + configured + "' not found");
  }
  if (const char* env = std::getenv("M2TD_WORKER_BIN")) {
    if (fs::exists(env)) return std::string(env);
  }
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    for (const fs::path& candidate :
         {self.parent_path() / "m2td_worker",
          self.parent_path() / ".." / "tools" / "m2td_worker"}) {
      if (fs::exists(candidate)) return candidate.string();
    }
  }
  return Status::NotFound(
      "m2td_worker binary not found: set DistProcessOptions::worker_binary "
      "or $M2TD_WORKER_BIN");
}

Result<DM2tdResult> DM2tdDecomposeProcess(
    const SubEnsembles& subs, const PfPartition& partition,
    const std::vector<std::uint64_t>& full_shape,
    const DM2tdOptions& options) {
  M2TD_ASSIGN_OR_RETURN(std::string worker_binary,
                        DefaultWorkerBinary(options.process.worker_binary));

  std::string job_dir = options.process.job_dir;
  bool created_job_dir = false;
  if (job_dir.empty()) {
    std::string pattern =
        (fs::temp_directory_path() / "m2td_dist_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      return Status::IOError(std::string("mkdtemp failed: ") +
                             std::strerror(errno));
    }
    job_dir = pattern;
    created_job_dir = true;
  }
  M2TD_ASSIGN_OR_RETURN(io::ShuffleStore store,
                        io::ShuffleStore::Create(job_dir));

  // Job config + input files.
  const JobGeometry geometry =
      dm2td_internal::MakeGeometry(partition, full_shape);
  DistJobConfig config;
  config.full_shape = full_shape;
  config.shape1 = subs.x1.shape();
  config.shape2 = subs.x2.shape();
  config.pivot_modes = partition.pivot_modes;
  config.side1_modes = partition.side1_modes;
  config.side2_modes = partition.side2_modes;
  config.shards = options.num_shards;
  config.zero_join = options.stitch.zero_join;
  M2TD_RETURN_IF_ERROR(
      dm2td_tasks::SaveJobConfig(job_dir + "/job.m2td", config));

  M2TD_RETURN_IF_ERROR(WriteCellSplits(store, subs, options.num_shards));
  if (options.stitch.zero_join) {
    std::vector<std::uint64_t> cand1, cand2;
    dm2td_internal::GatherZeroJoinCandidates(subs, geometry, &cand1, &cand2);
    M2TD_RETURN_IF_ERROR(store.WriteFile(
        dm2td_tasks::kCandidatesFile, 2, [&](std::size_t side) {
          return dm2td_tasks::EncodeU64List(side == 0 ? cand1 : cand2);
        }));
  }
  const std::uint64_t num_cells =
      subs.x1.NumNonZeros() + subs.x2.NumNonZeros();

  // Coordinator-side net faults are armed for the run's duration only.
  struct NetFaultScope {
    ~NetFaultScope() { if (armed) robust::DisarmAllNetFaults(); }
    bool armed = false;
  } netfault_scope;
  if (!options.process.net_faults.empty()) {
    M2TD_RETURN_IF_ERROR(
        robust::ArmNetFaultsFromString(options.process.net_faults));
    netfault_scope.armed = true;
  }
  Result<DM2tdResult> outcome = [&]() -> Result<DM2tdResult> {
    Coordinator coord(options, store, job_dir, worker_binary);
    M2TD_RETURN_IF_ERROR(coord.SpawnWorkers());
    Result<DM2tdResult> result = RunPipeline(
        coord, store, partition, full_shape, options, num_cells);
    coord.Drain();
    if (result.ok()) result->dist = coord.stats();
    return result;
  }();

  // Workers have exited: fold their metrics/spans into this process.
  MergeWorkerObs(job_dir, options.num_workers);

  if (outcome.ok() && created_job_dir && !options.process.keep_job_dir) {
    std::error_code ec;
    fs::remove_all(job_dir, ec);
  }
  return outcome;
}

}  // namespace m2td::core
