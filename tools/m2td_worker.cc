// m2td_worker — one worker process of the multi-process D-M2TD backend.
//
// Spawned by the coordinator (core/dm2td_dist.cc) or started by hand on
// another machine, a worker dials the coordinator's listener
// (--connect=host:port, required), identifies itself with a hello frame
// and speaks mapreduce/transport.h frames. When the connection drops
// mid-run it redials under a capped seeded exponential backoff for up to
// --redial_ms before giving up. Durable frames (hello, done, fail) ride
// an outbox that is flushed after every successful redial, so a result
// computed during an outage still reaches the coordinator; heartbeats
// are droppable.
//
// Protocol:
//   coordinator -> worker:  "task ..." (see dm2td_tasks::EncodeTaskFrame)
//                           "cancel <phase> <index> <attempt>"
//                           "quit"
//   worker -> coordinator:  "hello <id>", "hb <id>" (heartbeat thread),
//                           "done <phase> <index> <attempt>",
//                           "fail <phase> <index> <attempt> <code>\n<msg>"
//
// Tasks run on a dedicated runner thread under a per-task CancelSource,
// so a cancel frame (the losing side of a speculative race) interrupts
// the task mid-body; the worker acknowledges with a kCancelled fail
// frame and becomes idle again. All intermediate data flows through the
// durable ShuffleStore in --job_dir; the control channel carries only
// frames, so a SIGKILL at any instant loses at most one uncommitted task
// attempt. A frame that fails to decode is logged (header bytes, hex)
// and the worker exits with dm2td_tasks::kWorkerExitMalformedFrame. On
// exit the worker writes its metrics (worker<id>.metrics.json) and spans
// (worker<id>.spans.tsv, epoch-shifted by --trace_epoch_us onto the
// coordinator's clock) for the coordinator to merge into one trace.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dm2td_tasks.h"
#include "io/shuffle_store.h"
#include "mapreduce/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "robust/netfault.h"
#include "robust/retry.h"
#include "util/flags.h"

namespace {

using m2td::Result;
using m2td::Status;
namespace tasks = m2td::core::dm2td_tasks;
namespace transport = m2td::mapreduce::transport;

/// First bytes of a frame as "0x61 0x62 ...": what the malformed-frame
/// exit path logs so the offending header is diagnosable post mortem.
std::string HexHeader(const std::string& frame, std::size_t limit = 16) {
  std::ostringstream out;
  const std::size_t n = std::min(frame.size(), limit);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out << ' ';
    out << "0x" << std::hex << std::setw(2) << std::setfill('0')
        << (static_cast<unsigned>(frame[i]) & 0xFF);
  }
  if (frame.size() > n) out << " ... (" << std::dec << frame.size()
                            << " bytes)";
  return out.str();
}

/// The worker's side of the control channel. Writes come from three
/// threads (main, runner, heartbeat) and are serialized by `mu_`; the
/// connection object is only ever swapped by the main thread (the sole
/// reader), which also holds `mu_` across the swap so no writer observes
/// a half-replaced channel.
class CoordinatorLink {
 public:
  /// First dial + hello. The redial budget and backoff seed also govern
  /// every later Redial().
  Status Attach(const std::string& address, std::int64_t worker_id,
                double redial_ms) {
    address_ = address;
    redial_ms_ = redial_ms;
    policy_.max_retries = 1 << 20;  // budget-bounded, not count-bounded
    policy_.base_backoff_ms = 20.0;
    policy_.max_backoff_ms = 500.0;
    policy_.jitter_fraction = 0.5;
    policy_.seed = 1000003ULL * static_cast<std::uint64_t>(worker_id + 1);
    hello_ = "hello " + std::to_string(worker_id);
    std::lock_guard<std::mutex> lock(mu_);
    M2TD_ASSIGN_OR_RETURN(
        conn_, transport::DialWithBackoff(address_, "coordinator", policy_,
                                          redial_ms_,
                                          m2td::robust::CancelToken()));
    outbox_.push_back(hello_);
    return FlushLocked();
  }

  /// Queues (durable) or attempts (droppable) one frame. Durable frames
  /// survive a dead connection in the outbox until a redial flushes them;
  /// droppable ones are heartbeat-class and vanish with the outage.
  void Send(const std::string& frame, bool durable) {
    std::lock_guard<std::mutex> lock(mu_);
    if (durable) {
      outbox_.push_back(frame);
      (void)FlushLocked();
      return;
    }
    if (!outbox_.empty() && !FlushLocked().ok()) return;
    if (outbox_.empty() && conn_.connected()) {
      (void)conn_.WriteFrame(frame, kWriteDeadlineMs);
    }
  }

  /// Main thread only. Blocks for the next frame.
  Result<std::string> Read() { return conn_.ReadFrame(); }

  /// Main thread only: replaces a torn connection, re-identifies,
  /// and flushes everything queued during the outage (in order).
  Status Redial() {
    std::lock_guard<std::mutex> lock(mu_);
    conn_.Close();
    M2TD_ASSIGN_OR_RETURN(
        conn_, transport::DialWithBackoff(address_, "coordinator", policy_,
                                          redial_ms_,
                                          m2td::robust::CancelToken()));
    // hello must precede any queued done/fail so the coordinator can
    // rebind the identity before routing task frames.
    outbox_.push_front(hello_);
    return FlushLocked();
  }

 private:
  static constexpr double kWriteDeadlineMs = 5000.0;

  Status FlushLocked() {
    while (!outbox_.empty()) {
      M2TD_RETURN_IF_ERROR(conn_.WriteFrame(outbox_.front(),
                                            kWriteDeadlineMs));
      outbox_.pop_front();
    }
    return Status::OK();
  }

  std::mutex mu_;
  transport::Connection conn_;
  std::deque<std::string> outbox_;
  std::string address_;
  std::string hello_;
  double redial_ms_ = 10000.0;
  m2td::robust::RetryPolicy policy_;
};

/// Task execution state shared between the main (frame-routing) thread
/// and the runner thread.
struct TaskState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<tasks::TaskRequest> queue;
  bool quitting = false;
  bool has_running = false;
  tasks::TaskRequest running;
  /// Owned by the runner's stack frame while has_running; the main
  /// thread fires it (under mu) to honour a cancel frame.
  m2td::robust::CancelSource* running_source = nullptr;
};

std::string FrameHeader(const tasks::TaskRequest& task) {
  return task.phase + " " + std::to_string(task.index) + " " +
         std::to_string(task.attempt);
}

void RunnerLoop(TaskState* state, CoordinatorLink* link,
                const m2td::io::ShuffleStore* store,
                const tasks::DistJobConfig* config) {
  while (true) {
    tasks::TaskRequest task;
    m2td::robust::CancelSource source;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [state] {
        return state->quitting || !state->queue.empty();
      });
      if (state->quitting) return;
      task = std::move(state->queue.front());
      state->queue.pop_front();
      state->has_running = true;
      state->running = task;
      state->running_source = &source;
    }
    Status outcome;
    {
      m2td::robust::CancelScope scope(source.token());
      outcome = tasks::RunDistTask(*store, *config, task);
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->has_running = false;
      state->running_source = nullptr;
    }
    const std::string header = FrameHeader(task);
    if (outcome.ok()) {
      link->Send("done " + header, /*durable=*/true);
    } else {
      // A cancelled attempt (speculative race lost) acknowledges with
      // kCancelled — the coordinator frees the worker without a retry.
      std::string message = outcome.message();
      if (message.size() > 4096) message.resize(4096);
      link->Send("fail " + header + " " +
                     std::to_string(static_cast<int>(outcome.code())) + "\n" +
                     message,
                 /*durable=*/true);
    }
  }
}

void ExportObservability(const std::string& job_dir, std::int64_t worker_id,
                         double epoch_delta_us) {
  const std::string base =
      job_dir + "/worker" + std::to_string(worker_id);
  {
    std::ofstream out(base + ".metrics.json");
    if (out) m2td::obs::WriteMetricsJson(out);
  }
  std::ofstream out(base + ".spans.tsv");
  if (!out) return;
  for (const m2td::obs::SpanRecord& span : m2td::obs::Tracer::Get().Spans()) {
    out << span.name << '\t' << (span.start_us + epoch_delta_us) << '\t'
        << span.duration_us << '\t' << span.cpu_us << '\t' << span.thread_id
        << '\t' << span.depth << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string job_dir;
  std::int64_t worker_id = 0;
  double heartbeat_ms = 50.0;
  double trace_epoch_us = 0.0;
  std::string connect;
  double redial_ms = 10000.0;
  std::string net_faults;

  m2td::FlagParser parser(
      "m2td_worker: D-M2TD worker process (spawned by the coordinator, or "
      "started by hand); dials the coordinator at --connect");
  parser.AddString("job_dir", "shuffle store / job config directory",
                   &job_dir);
  parser.AddInt64("worker_id", "index within the worker pool", &worker_id);
  parser.AddDouble("heartbeat_ms", "heartbeat frame period", &heartbeat_ms);
  parser.AddDouble("trace_epoch_us",
                   "coordinator clock (µs since its tracer epoch) at spawn; "
                   "exported spans are shifted onto it",
                   &trace_epoch_us);
  parser.AddString("connect",
                   "coordinator listener host:port (required)",
                   &connect);
  parser.AddDouble("redial_ms",
                   "total budget for redialing a dropped connection "
                   "(capped seeded exponential backoff)",
                   &redial_ms);
  parser.AddString("net_faults",
                   "deterministic transport fault specs "
                   "(robust/netfault.h grammar), armed in this worker",
                   &net_faults);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) {
    std::cerr << positional.status() << "\n";
    return tasks::kWorkerExitBadInvocation;
  }
  if (connect.empty()) {
    std::cerr << "m2td_worker: --connect=host:port is required\n";
    return tasks::kWorkerExitBadInvocation;
  }

  m2td::obs::SetTracingEnabled(true);
  m2td::obs::SetMetricsEnabled(true);
  const double epoch_delta_us =
      trace_epoch_us - m2td::obs::Tracer::NowMicros();

  // Chaos specs ride the environment and the command line: M2TD_FAILPOINTS
  // arms task-level failure injection, M2TD_DIST_CHAOS_SLEEP_MS widens the
  // mid-shuffle-write kill window, M2TD_DIST_STRAGGLER slows one named
  // task (see dm2td_tasks.h), and M2TD_NET_FAULTS / --net_faults arm the
  // transport fault injector.
  for (const Status& armed :
       {m2td::robust::ArmFailpointsFromEnv(),
        m2td::robust::ArmNetFaultsFromEnv(),
        m2td::robust::ArmNetFaultsFromString(net_faults)}) {
    if (!armed.ok()) {
      std::cerr << "m2td_worker: " << armed << "\n";
      return tasks::kWorkerExitBadInvocation;
    }
  }

  auto store = m2td::io::ShuffleStore::Create(job_dir);
  if (!store.ok()) {
    std::cerr << "m2td_worker: " << store.status() << "\n";
    return tasks::kWorkerExitBadJob;
  }
  auto config = tasks::LoadJobConfig(job_dir + "/job.m2td");
  if (!config.ok()) {
    std::cerr << "m2td_worker: " << config.status() << "\n";
    return tasks::kWorkerExitBadJob;
  }

  CoordinatorLink link;
  const Status attached = link.Attach(connect, worker_id, redial_ms);
  if (!attached.ok()) {
    std::cerr << "m2td_worker: cannot attach to " << connect << ": "
              << attached << "\n";
    return tasks::kWorkerExitLostCoordinator;
  }

  // The heartbeat waits out its period on a condition variable, so
  // shutdown interrupts it at once instead of sleeping a full period.
  std::mutex heartbeat_mu;
  std::condition_variable heartbeat_cv;
  bool heartbeat_stop = false;
  std::thread heartbeat([&, worker_id, heartbeat_ms] {
    const auto period = std::chrono::duration<double, std::milli>(
        heartbeat_ms > 0 ? heartbeat_ms : 50.0);
    const std::string frame = "hb " + std::to_string(worker_id);
    std::unique_lock<std::mutex> lock(heartbeat_mu);
    while (!heartbeat_stop) {
      lock.unlock();
      link.Send(frame, /*durable=*/false);
      lock.lock();
      heartbeat_cv.wait_for(lock, period, [&] { return heartbeat_stop; });
    }
  });

  TaskState state;
  std::thread runner(RunnerLoop, &state, &link, &*store, &*config);

  int code = tasks::kWorkerExitOk;
  while (true) {
    Result<std::string> frame = link.Read();
    if (!frame.ok()) {
      // Disconnect is not death: redial inside the budget and resume this
      // identity (the coordinator honours the heartbeat lease).
      if (link.Redial().ok()) continue;
      std::cerr << "m2td_worker: lost coordinator at " << connect
                << " (redial budget exhausted)\n";
      code = tasks::kWorkerExitLostCoordinator;
      break;
    }
    if (*frame == "quit") break;

    std::istringstream in(*frame);
    std::string verb;
    in >> verb;
    if (verb == "cancel") {
      std::string phase;
      int index = -1, attempt = -1;
      if (!(in >> phase >> index >> attempt)) {
        std::cerr << "m2td_worker: malformed frame, header: "
                  << HexHeader(*frame) << "\n";
        code = tasks::kWorkerExitMalformedFrame;
        break;
      }
      std::string ack;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.has_running && state.running.phase == phase &&
            state.running.index == index) {
          // The runner acknowledges via its own kCancelled fail frame.
          state.running_source->Cancel();
        } else {
          for (auto it = state.queue.begin(); it != state.queue.end(); ++it) {
            if (it->phase == phase && it->index == index) {
              ack = "fail " + FrameHeader(*it) + " " +
                    std::to_string(
                        static_cast<int>(m2td::StatusCode::kCancelled)) +
                    "\ncancelled before start";
              state.queue.erase(it);
              break;
            }
          }
        }
      }
      if (!ack.empty()) link.Send(ack, /*durable=*/true);
      continue;
    }
    if (verb != "task") {
      std::cerr << "m2td_worker: malformed frame, header: "
                << HexHeader(*frame) << "\n";
      code = tasks::kWorkerExitMalformedFrame;
      break;
    }
    Result<tasks::TaskRequest> task = tasks::DecodeTaskFrame(*frame);
    if (!task.ok()) {
      std::cerr << "m2td_worker: " << task.status()
                << "; header: " << HexHeader(*frame) << "\n";
      code = tasks::kWorkerExitMalformedFrame;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(state.mu);
      // The coordinator re-sends the current assignment after a
      // reconnect; a duplicate of something already running or queued is
      // dropped, not run twice.
      bool duplicate = state.has_running &&
                       state.running.phase == task->phase &&
                       state.running.index == task->index;
      for (const tasks::TaskRequest& queued : state.queue) {
        duplicate |= queued.phase == task->phase &&
                     queued.index == task->index;
      }
      if (!duplicate) state.queue.push_back(std::move(*task));
    }
    state.cv.notify_one();
  }

  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.quitting = true;
    if (state.running_source != nullptr) state.running_source->Cancel();
  }
  state.cv.notify_all();
  runner.join();
  {
    std::lock_guard<std::mutex> lock(heartbeat_mu);
    heartbeat_stop = true;
  }
  heartbeat_cv.notify_all();
  heartbeat.join();
  ExportObservability(job_dir, worker_id, epoch_delta_us);
  return code;
}
