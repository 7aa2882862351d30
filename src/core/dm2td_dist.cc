#include "core/dm2td_dist.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dm2td_internal.h"
#include "core/dm2td_tasks.h"
#include "io/chunk_store.h"
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
using dm2td_internal::JoinCell;
using dm2td_internal::TensorCell;
using dm2td_tasks::DistJobConfig;
using dm2td_tasks::TaskRequest;

/// Writes to a dead worker's pipe must surface as EPIPE, not kill the
/// coordinator; scoped so library callers keep their own disposition.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = ::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { ::signal(SIGPIPE, previous_); }

 private:
  using Handler = void (*)(int);
  Handler previous_;
};

struct WorkerProc {
  int id = -1;
  /// -1 for external workers (socket transport with spawn_workers off).
  pid_t pid = -1;
  mapreduce::transport::Connection conn;
  /// The identity is live: its process (if spawned) has not been reaped
  /// and its heartbeat lease has not lapsed. Socket workers stay alive
  /// across connection drops — disconnect is not death.
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

/// One stage = `count` tasks of one phase. A stage that reads committed
/// task outputs carries the prototype of the phase producing them — the
/// map phase for a reduce stage, the previous reduce phase for a phase-3
/// map stage — so a DataLoss verdict on a committed blob can be turned
/// back into a re-execution of its producer.
struct StagePlan {
  std::string phase;
  int count = 0;
  TaskRequest prototype;
  const TaskRequest* upstream = nullptr;
};

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

  Status SpawnWorkers() {
    const int count = options_.num_workers;
    workers_.resize(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) workers_[static_cast<std::size_t>(k)].id = k;
    if (UseSocket()) {
      M2TD_ASSIGN_OR_RETURN(
          listener_,
          mapreduce::transport::Listener::Listen(options_.process.listen));
    }
    if (!UseSocket() || options_.process.spawn_workers) {
      for (int k = 0; k < count; ++k) {
        M2TD_RETURN_IF_ERROR(SpawnWorker(k));
      }
      stats_.workers_spawned = count;
    }
    if (UseSocket()) return WaitForAttach();
    return Status::OK();
  }

  Status RunStage(const StagePlan& plan) {
    obs::ObsSpan stage_span("dist_stage");
    stage_span.Annotate("phase", plan.phase);
    std::deque<TaskRequest> pending;
    for (int t = 0; t < plan.count; ++t) {
      TaskRequest task = plan.prototype;
      task.index = t;
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
          static_cast<int>(done.size()) == plan.count && blocked.empty();
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
      if (listener_.listening()) {
        fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
        fd_worker.push_back(-1);
      }
      for (const mapreduce::transport::Connection& p : pending_) {
        fds.push_back(pollfd{p.read_fd(), POLLIN, 0});
        fd_worker.push_back(-1);
      }
      for (const WorkerProc& w : workers_) {
        if (!w.alive || !w.connected) continue;
        fds.push_back(pollfd{w.conn.read_fd(), POLLIN, 0});
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
      // disconnected socket worker that redials in time never reaches
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

  /// Graceful shutdown: quit frames, closed channels, bounded wait,
  /// SIGKILL stragglers.
  void Drain() {
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
      ::usleep(10 * 1000);
    }
    KillAll();
  }

 private:
  static constexpr int kMaxReassignments = 16;

  bool UseSocket() const { return options_.process.transport == "socket"; }

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
    if (UseSocket()) {
      args.push_back("--connect=" + listener_.bound_address());
      args.push_back("--redial_ms=" +
                     std::to_string(options_.process.redial_ms));
    }
    if (!options_.process.worker_net_faults.empty()) {
      args.push_back("--net_faults=" + options_.process.worker_net_faults);
    }

    int to_pipe[2] = {-1, -1}, from_pipe[2] = {-1, -1};
    if (!UseSocket()) {
      if (::pipe(to_pipe) != 0 || ::pipe(from_pipe) != 0) {
        return Status::IOError(std::string("pipe failed: ") +
                               std::strerror(errno));
      }
      // Pipe ends must not leak into sibling workers; the child's dup2
      // onto fds 0/1 clears CLOEXEC on the two ends it keeps.
      for (int fd : {to_pipe[0], to_pipe[1], from_pipe[0], from_pipe[1]}) {
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IOError(std::string("fork failed: ") +
                             std::strerror(errno));
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      if (!UseSocket()) {
        ::dup2(to_pipe[0], 0);
        ::dup2(from_pipe[1], 1);
      }
      ::execv(worker_binary_.c_str(), argv.data());
      _exit(127);
    }

    WorkerProc& w = workers_[static_cast<std::size_t>(k)];
    w.id = k;
    w.pid = pid;
    w.alive = true;
    w.busy = false;
    if (!UseSocket()) {
      ::close(to_pipe[0]);
      ::close(from_pipe[1]);
      w.conn = mapreduce::transport::Connection::FromFds(
          from_pipe[0], to_pipe[1], "worker" + std::to_string(k));
      M2TD_RETURN_IF_ERROR(w.conn.SetNonBlockingRead());
      w.connected = true;
      w.ever_connected = true;
    }
    hb_.Arm(k);
    Emit("spawn", "", -1, k, pid);
    return Status::OK();
  }

  /// Socket transport: wait until every worker slot has attached (said
  /// hello) before the pipeline starts assigning.
  Status WaitForAttach() {
    const double budget_ms =
        std::max(options_.process.task_lease_ms, 1000.0);
    const double start_us = NowUs();
    while (true) {
      M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
      bool all = true;
      for (const WorkerProc& w : workers_) all &= w.ever_connected;
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
        fds.push_back(pollfd{p.read_fd(), POLLIN, 0});
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
    if (!listener_.listening()) return Status::OK();
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
  /// is a disconnect (socket) or a death (pipe).
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

  /// The control channel to `w` broke. Pipes cannot come back, so this is
  /// death; a socket worker stays alive under its heartbeat lease and may
  /// redial (its in-flight task stays leased to it, not reassigned).
  void HandleChannelLoss(WorkerProc& w, StageCtx* ctx) {
    if (!UseSocket()) {
      DeclareDead(w, "death", ctx);
      return;
    }
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
      if (phase == plan.phase) {
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
        TaskRequest task = RebuildTask(phase, index, plan);
        task.attempt = NextAttempt(key);
        ctx->pending->push_back(std::move(task));
        return Status::OK();
      }
      return failure;
    }
    return Status::Internal("unknown worker frame '" + frame + "'");
  }

  /// A task hit a corrupt committed blob of the stage's upstream phase.
  /// The blob names its producer in a "[task <phase>:<m>]" marker:
  /// re-execute that task (its fresh commit atomically replaces the
  /// poisoned one) and hold the reader until it lands — never retry the
  /// poisoned bytes.
  Status HandleDataLoss(const std::string& phase, int index,
                        const std::string& message, StageCtx* ctx,
                        const Status& failure) {
    const StagePlan& plan = *ctx->plan;
    const std::size_t open = message.rfind("[task ");
    const std::size_t close =
        open == std::string::npos ? std::string::npos : message.find(']', open);
    std::string culprit_phase;
    int culprit_index = -1;
    if (close != std::string::npos) {
      const std::string context =
          message.substr(open + 6, close - open - 6);
      const std::size_t colon = context.find(':');
      if (colon != std::string::npos) {
        culprit_phase = context.substr(0, colon);
        culprit_index = std::atoi(context.c_str() + colon + 1);
      }
    }
    if (plan.upstream == nullptr || culprit_index < 0 ||
        culprit_phase != plan.upstream->phase) {
      // No replayable producer (job input blob, or unparseable): the data
      // is gone for good.
      return failure;
    }
    const TaskKey culprit{culprit_phase, culprit_index};
    M2TD_LOG_WARNING() << "shuffle blob of " << culprit_phase << ":"
                     << culprit_index
                     << " failed its integrity check; re-executing it ("
                     << phase << ":" << index << " held)";
    ctx->blocked->push_back({RebuildTask(phase, index, plan), culprit});
    if (ctx->reexec_inflight->insert(culprit).second) {
      // The poisoned commit is deliberately left in place: other
      // readers still reading it must see a commit (their untouched
      // blobs are fine; clearing would fail them with NotFound
      // mid-read). The re-executed attempt atomically replaces it via
      // CommitTask's rename.
      TaskRequest task = *plan.upstream;
      task.index = culprit_index;
      task.attempt = NextAttempt(culprit);
      ctx->pending->push_front(std::move(task));
      stats_.map_reexecutions++;
      obs::GetCounter("dist.map_reexecutions").Increment();
      Emit("map_reexec", culprit_phase, culprit_index, -1, -1);
    }
    return Status::OK();
  }

  /// The stage-task or upstream-prototype TaskRequest for (phase, index).
  TaskRequest RebuildTask(const std::string& phase, int index,
                          const StagePlan& plan) const {
    TaskRequest task = phase == plan.phase         ? plan.prototype
                       : plan.upstream != nullptr ? *plan.upstream
                                                  : plan.prototype;
    task.phase = phase;
    task.index = index;
    return task;
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

/// Contiguous split m of [0, size) into `splits` ranges — the same
/// arithmetic the thread engine uses for its map shards, so blob
/// concatenation in split order reproduces the global input order.
std::pair<std::size_t, std::size_t> SplitRange(std::size_t size, int splits,
                                               int m) {
  const std::size_t begin =
      size * static_cast<std::size_t>(m) / static_cast<std::size_t>(splits);
  const std::size_t end = size * (static_cast<std::size_t>(m) + 1) /
                          static_cast<std::size_t>(splits);
  return {begin, end};
}

Status WriteCellSplits(const io::ShuffleStore& store,
                       const std::vector<TensorCell>& cells, int splits) {
  for (int m = 0; m < splits; ++m) {
    const auto [begin, end] = SplitRange(cells.size(), splits, m);
    const std::vector<TensorCell> part(cells.begin() + begin,
                                       cells.begin() + end);
    M2TD_RETURN_IF_ERROR(store.WriteBlob(
        "input/cells/split" + std::to_string(m),
        dm2td_tasks::EncodeCells(part)));
  }
  return Status::OK();
}

/// Reads the committed "data" blob of every reduce task of `phase`, in
/// task order.
Result<std::vector<std::string>> GatherReduceOutputs(
    const io::ShuffleStore& store, const std::string& phase, int shards) {
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<std::size_t>(shards));
  for (int r = 0; r < shards; ++r) {
    M2TD_ASSIGN_OR_RETURN(
        std::string bytes,
        dm2td_tasks::ReadCommittedBlob(store, phase, r, "data"));
    payloads.push_back(std::move(bytes));
  }
  return payloads;
}

/// Total records the committed tasks of `phase` emitted, read from their
/// commit manifests — no blob is opened.
Result<std::uint64_t> CommittedRecords(const io::ShuffleStore& store,
                                       const std::string& phase,
                                       int shards) {
  std::uint64_t records = 0;
  for (int r = 0; r < shards; ++r) {
    M2TD_ASSIGN_OR_RETURN(io::ShuffleStore::TaskCommit commit,
                          store.ReadCommit(phase, r));
    records += commit.records;
  }
  return records;
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
                                const SubEnsembles& subs,
                                const PfPartition& partition,
                                const std::vector<std::uint64_t>& full_shape,
                                const DM2tdOptions& options,
                                const std::vector<TensorCell>& all_cells) {
  const std::size_t num_modes = full_shape.size();
  const int shards = options.num_shards;
  DM2tdResult result;

  obs::ObsSpan total_span("dm2td_decompose", obs::ObsSpan::kAlwaysTime);
  total_span.Annotate("num_workers",
                      static_cast<std::int64_t>(options.num_workers));
  total_span.Annotate("num_shards", static_cast<std::int64_t>(shards));
  total_span.Annotate("backend", "process");

  // ---------- Phase 1: parallel sub-tensor decomposition. ----------
  obs::ObsSpan sub_span("sub_decompose", obs::ObsSpan::kAlwaysTime);
  TaskRequest p1map;
  p1map.is_map = true;
  p1map.phase = "p1map";
  TaskRequest p1red;
  p1red.is_map = false;
  p1red.phase = "p1red";
  {
    obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
    M2TD_RETURN_IF_ERROR(coord.RunStage({"p1map", shards, p1map, nullptr}));
    result.phase1.map_seconds = map_span.End();
  }
  {
    obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
    M2TD_RETURN_IF_ERROR(coord.RunStage({"p1red", shards, p1red, &p1map}));
    result.phase1.reduce_seconds = reduce_span.End();
  }
  result.phase1.intermediate_pairs = all_cells.size();

  obs::ObsSpan gather1_span("dist_gather", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(std::vector<std::string> gram_payloads,
                        GatherReduceOutputs(store, "p1red", shards));
  std::unordered_map<std::uint64_t, linalg::Matrix> grams;
  for (const std::string& payload : gram_payloads) {
    M2TD_ASSIGN_OR_RETURN(std::vector<GramPiece> pieces,
                          dm2td_tasks::DecodeGramPieces(payload));
    for (GramPiece& piece : pieces) {
      result.phase1.output_records++;
      grams[static_cast<std::uint64_t>(piece.kappa) * 64 + piece.sub_mode] =
          std::move(piece.gram);
    }
  }
  M2TD_ASSIGN_OR_RETURN(std::vector<linalg::Matrix> factors,
                        dm2td_internal::AssembleFactors(grams, partition,
                                                        full_shape, options));
  result.phase1.shuffle_seconds = gather1_span.End();
  sub_span.End();

  // ---------- Phase 2: parallel JE-stitching. ----------
  obs::ObsSpan stitch_span("stitch", obs::ObsSpan::kAlwaysTime);
  TaskRequest p2map;
  p2map.is_map = true;
  p2map.phase = "p2map";
  TaskRequest p2red;
  p2red.is_map = false;
  p2red.phase = "p2red";
  {
    obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
    M2TD_RETURN_IF_ERROR(coord.RunStage({"p2map", shards, p2map, nullptr}));
    result.phase2.map_seconds = map_span.End();
  }
  {
    obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
    M2TD_RETURN_IF_ERROR(coord.RunStage({"p2red", shards, p2red, &p2map}));
    result.phase2.reduce_seconds = reduce_span.End();
  }
  result.phase2.intermediate_pairs = all_cells.size();
  M2TD_ASSIGN_OR_RETURN(result.join_nnz,
                        CommittedRecords(store, "p2red", shards));
  result.phase2.output_records = result.join_nnz;
  stitch_span.Annotate("join_nnz", result.join_nnz);
  stitch_span.End();

  // ---------- Phase 3: one map+reduce stage pair per mode. ----------
  // The join tensor never comes back to the coordinator: map task m of
  // mode n reads the committed output of reduce task m of the previous
  // stage (p2red for mode 0), so only the final mode is gathered.
  obs::ObsSpan core_span("core_recovery", obs::ObsSpan::kAlwaysTime);
  for (std::size_t n = 0; n < num_modes; ++n) {
    M2TD_RETURN_IF_ERROR(
        store.WriteBlob("input/factor" + std::to_string(n),
                        dm2td_tasks::EncodeMatrix(factors[n])));
  }
  std::vector<std::uint64_t> current_shape = full_shape;
  TaskRequest upstream = p2red;
  std::uint64_t mode_input_records = result.join_nnz;
  for (std::size_t n = 0; n < num_modes; ++n) {
    obs::ObsSpan ttm_span("ttm_job", obs::ObsSpan::kAlwaysTime);
    ttm_span.Annotate("mode", static_cast<std::uint64_t>(n));
    const std::string suffix = "_" + std::to_string(n);
    TaskRequest p3map;
    p3map.is_map = true;
    p3map.phase = "p3map" + suffix;
    p3map.mode = static_cast<int>(n);
    p3map.shape = current_shape;
    TaskRequest p3red = p3map;
    p3red.is_map = false;
    p3red.phase = "p3red" + suffix;
    {
      obs::ObsSpan map_span("dist_map", obs::ObsSpan::kAlwaysTime);
      M2TD_RETURN_IF_ERROR(
          coord.RunStage({p3map.phase, shards, p3map, &upstream}));
      result.phase3.map_seconds += map_span.End();
    }
    {
      obs::ObsSpan reduce_span("dist_reduce", obs::ObsSpan::kAlwaysTime);
      M2TD_RETURN_IF_ERROR(
          coord.RunStage({p3red.phase, shards, p3red, &p3map}));
      result.phase3.reduce_seconds += reduce_span.End();
    }
    result.phase3.intermediate_pairs += mode_input_records;
    M2TD_ASSIGN_OR_RETURN(mode_input_records,
                          CommittedRecords(store, p3red.phase, shards));
    current_shape[n] = factors[n].cols();
    upstream = std::move(p3red);
  }
  result.phase3.output_records = mode_input_records;

  obs::ObsSpan gather_span("dist_gather", obs::ObsSpan::kAlwaysTime);
  M2TD_ASSIGN_OR_RETURN(std::vector<std::string> payloads,
                        GatherReduceOutputs(store, upstream.phase, shards));
  // Final cells have unique index vectors, so the scatter order into the
  // zero core is immaterial.
  tensor::DenseTensor core(current_shape);
  for (const std::string& payload : payloads) {
    M2TD_ASSIGN_OR_RETURN(std::vector<JoinCell> cells,
                          dm2td_tasks::DecodeJoinCells(payload));
    for (const JoinCell& cell : cells) core.at(cell.idx) += cell.value;
  }
  result.phase3.shuffle_seconds = gather_span.End();
  result.tucker.core = std::move(core);
  result.tucker.factors = std::move(factors);
  (void)subs;
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
    for (const fs::path candidate :
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

  // Job config + input blobs.
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

  std::vector<TensorCell> all_cells =
      dm2td_internal::CollectCells(subs.x1, 1);
  {
    std::vector<TensorCell> cells2 =
        dm2td_internal::CollectCells(subs.x2, 2);
    all_cells.insert(all_cells.end(),
                     std::make_move_iterator(cells2.begin()),
                     std::make_move_iterator(cells2.end()));
  }
  M2TD_RETURN_IF_ERROR(WriteCellSplits(store, all_cells, options.num_shards));
  if (options.stitch.zero_join) {
    std::vector<std::uint64_t> cand1, cand2;
    dm2td_internal::GatherZeroJoinCandidates(all_cells, geometry, &cand1,
                                             &cand2);
    M2TD_RETURN_IF_ERROR(
        store.WriteBlob("input/cand1", dm2td_tasks::EncodeU64List(cand1)));
    M2TD_RETURN_IF_ERROR(
        store.WriteBlob("input/cand2", dm2td_tasks::EncodeU64List(cand2)));
  }

  SigpipeGuard sigpipe_guard;
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
        coord, store, subs, partition, full_shape, options, all_cells);
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
