// Worker-death chaos tests of the multi-process D-M2TD backend
// (ctest -L chaos): SIGKILL one worker in each map and reduce stage of
// both phases — mid-map, mid-shuffle-write, mid-reduce — and assert the
// recovered run is bit-identical to the thread backend at worker counts
// 1, 2 and 4.
//
// Kill schedules are deterministic, not timing-based: the coordinator's
// DistProcessOptions::event_hook fires inline on every scheduling event,
// so "SIGKILL the worker that was just assigned the 2nd p2map task" is
// exactly reproducible, and M2TD_DIST_CHAOS_SLEEP_MS (inherited by the
// workers) holds every map/reduce task open between its shuffle writes
// and its commit so the kill always lands mid-task.

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/dm2td_tasks.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "linalg/matrix.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "tensor/tucker.h"

namespace m2td {
namespace {

std::unique_ptr<ensemble::DynamicalSystemModel> SmallModel() {
  ensemble::ModelOptions options;
  options.parameter_resolution = 4;
  options.time_resolution = 4;
  options.dt = 0.01;
  options.record_every = 5;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

void ExpectBitIdentical(const core::DM2tdResult& a,
                        const core::DM2tdResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.join_nnz, b.join_nnz) << label;
  ASSERT_EQ(a.tucker.core.shape(), b.tucker.core.shape()) << label;
  EXPECT_EQ(a.tucker.core.data(), b.tucker.core.data()) << label;
  ASSERT_EQ(a.tucker.factors.size(), b.tucker.factors.size()) << label;
  for (std::size_t n = 0; n < a.tucker.factors.size(); ++n) {
    const linalg::Matrix& fa = a.tucker.factors[n];
    const linalg::Matrix& fb = b.tucker.factors[n];
    ASSERT_EQ(fa.rows(), fb.rows()) << label << " factor " << n;
    ASSERT_EQ(fa.cols(), fb.cols()) << label << " factor " << n;
    for (std::size_t r = 0; r < fa.rows(); ++r) {
      for (std::size_t c = 0; c < fa.cols(); ++c) {
        EXPECT_EQ(fa(r, c), fb(r, c))
            << label << " factor " << n << " (" << r << "," << c << ")";
      }
    }
  }
}

/// Widens the mid-shuffle-write kill window for the spawned workers for
/// the lifetime of the scope (workers inherit the test environment).
class ChaosSleepScope {
 public:
  explicit ChaosSleepScope(int millis) {
    ::setenv(core::dm2td_tasks::kChaosSleepEnv,
             std::to_string(millis).c_str(), 1);
  }
  ~ChaosSleepScope() { ::unsetenv(core::dm2td_tasks::kChaosSleepEnv); }
};

class DistChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            (std::string("dist_chaos_") + ::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    model_ = SmallModel();
    auto partition = core::MakePartition(5, {0});
    ASSERT_TRUE(partition.ok());
    partition_ = *partition;
    auto subs = core::BuildSubEnsembles(model_.get(), partition_, {});
    ASSERT_TRUE(subs.ok());
    subs_ = std::move(*subs);

    core::DM2tdOptions options = BaseOptions();
    options.backend = core::DistBackend::kThread;
    auto baseline = core::DM2tdDecompose(subs_, partition_,
                                         model_->space().Shape(), options);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    baseline_ = std::move(*baseline);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  core::DM2tdOptions BaseOptions() const {
    core::DM2tdOptions options;
    options.ranks = std::vector<std::uint64_t>(5, 2);
    options.num_shards = 4;
    return options;
  }

  /// Runs the process backend with `workers` workers, SIGKILLing the
  /// worker that receives the `kill_at`-th assignment of `kill_phase`
  /// (1-based; empty phase = no kill). Returns the result.
  Result<core::DM2tdResult> RunProcess(int workers,
                                       const std::string& kill_phase,
                                       int kill_at,
                                       std::uint64_t* deaths = nullptr) {
    core::DM2tdOptions options = BaseOptions();
    options.backend = core::DistBackend::kProcess;
    options.num_workers = workers;
    options.process.worker_binary = M2TD_WORKER_BIN;
    options.process.job_dir =
        (root_ / (kill_phase.empty() ? std::string("nokill")
                                     : kill_phase + std::to_string(workers)))
            .string();
    int assigns = 0;
    bool killed = false;
    options.process.event_hook = [&](const core::DistEvent& event) {
      if (killed || kill_phase.empty()) return;
      if (event.kind != "assign" || event.phase != kill_phase) return;
      if (++assigns != kill_at) return;
      ::kill(event.pid, SIGKILL);
      killed = true;
    };
    auto result = core::DM2tdDecompose(subs_, partition_,
                                       model_->space().Shape(), options);
    if (result.ok() && deaths != nullptr) {
      *deaths = result->dist.worker_deaths;
    }
    if (!kill_phase.empty()) {
      EXPECT_TRUE(killed) << kill_phase;
    }
    return result;
  }

  std::filesystem::path root_;
  std::unique_ptr<ensemble::DynamicalSystemModel> model_;
  core::PfPartition partition_;
  core::SubEnsembles subs_;
  core::DM2tdResult baseline_;
};

TEST_F(DistChaosTest, SingleWorkerNoKillMatchesThread) {
  auto result = RunProcess(1, "", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "workers=1");
  EXPECT_EQ(result->dist.worker_deaths, 0u);
}

TEST_F(DistChaosTest, KillDuringPhase1MapIsRecoveredBitIdentical) {
  ChaosSleepScope sleep(100);
  std::uint64_t deaths = 0;
  auto result = RunProcess(4, "p1map", 1, &deaths);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "kill p1map");
  EXPECT_GE(deaths, 1u);
  EXPECT_GE(result->dist.tasks_reassigned, 1u);
}

TEST_F(DistChaosTest, KillDuringPhase2StitchIsRecoveredBitIdentical) {
  ChaosSleepScope sleep(100);
  std::uint64_t deaths = 0;
  auto result = RunProcess(2, "p2map", 2, &deaths);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "kill p2map");
  EXPECT_GE(deaths, 1u);
}

TEST_F(DistChaosTest, KillDuringPhase2ReduceIsRecoveredBitIdentical) {
  ChaosSleepScope sleep(100);
  std::uint64_t deaths = 0;
  auto result = RunProcess(4, "p2red", 1, &deaths);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "kill p2red");
  EXPECT_GE(deaths, 1u);
}

TEST_F(DistChaosTest, KillDuringPhase1ReduceIsRecoveredBitIdentical) {
  ChaosSleepScope sleep(100);
  std::uint64_t deaths = 0;
  auto result = RunProcess(4, "p1red", 1, &deaths);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "kill p1red");
  EXPECT_GE(deaths, 1u);
}

TEST_F(DistChaosTest, RepeatedKillsAcrossPhasesStayBitIdentical) {
  // One run, three kills: the first assignment of p1map, p2red and p2map
  // each loses its worker. Survivor picks everything up; results
  // unchanged.
  ChaosSleepScope sleep(50);
  core::DM2tdOptions options = BaseOptions();
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 4;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = (root_ / "multi").string();
  bool killed_p1map = false, killed_p2red = false, killed_p2map = false;
  options.process.event_hook = [&](const core::DistEvent& event) {
    if (event.kind != "assign") return;
    bool* flag = nullptr;
    if (event.phase == "p1map") flag = &killed_p1map;
    if (event.phase == "p2red") flag = &killed_p2red;
    if (event.phase == "p2map") flag = &killed_p2map;
    if (flag == nullptr || *flag) return;
    ::kill(event.pid, SIGKILL);
    *flag = true;
  };
  auto result = core::DM2tdDecompose(subs_, partition_,
                                     model_->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(killed_p1map && killed_p2red && killed_p2map);
  ExpectBitIdentical(*result, baseline_, "kill p1map+p2red+p2map");
  EXPECT_GE(result->dist.worker_deaths, 3u);
}

// -------------------------------------- network chaos and stragglers

/// Points the spawned workers' deterministic straggler at one task for
/// the lifetime of the scope (workers inherit the test environment).
class StragglerScope {
 public:
  explicit StragglerScope(const std::string& spec) {
    ::setenv(core::dm2td_tasks::kStragglerEnv, spec.c_str(), 1);
  }
  ~StragglerScope() { ::unsetenv(core::dm2td_tasks::kStragglerEnv); }
};

TEST_F(DistChaosTest, SocketBackendNoChaosMatchesThread) {
  auto result = RunProcess(3, "", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "workers=3");
  // Each worker dialled in once and kept its connection to the drain.
  EXPECT_EQ(result->dist.net_connects, 3u);
  EXPECT_EQ(result->dist.net_reconnects, 0u);
  EXPECT_EQ(result->dist.net_disconnects, 0u);
  EXPECT_EQ(result->dist.worker_deaths, 0u);
}

TEST_F(DistChaosTest, SocketBackendKillMidPhaseIsRecoveredBitIdentical) {
  // A SIGKILLed worker's socket hangs up first; the coordinator sees the
  // disconnect, reaps the process at once and reassigns its task, with
  // no wait for the 30 s lease.
  ChaosSleepScope sleep(100);
  core::DM2tdOptions options = BaseOptions();
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 4;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = (root_ / "socket_kill").string();
  int victim = -1;
  std::vector<std::string> victim_events;
  options.process.event_hook = [&](const core::DistEvent& event) {
    if (victim < 0 && event.kind == "assign" && event.phase == "p1map") {
      victim = event.worker;
      ::kill(event.pid, SIGKILL);
      return;
    }
    if (victim >= 0 && event.worker == victim) {
      victim_events.push_back(event.kind);
    }
  };
  auto result = core::DM2tdDecompose(subs_, partition_,
                                     model_->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(victim, 0);
  ExpectBitIdentical(*result, baseline_, "socket SIGKILL p1map");
  const std::vector<std::string> expected = {"disconnect", "death"};
  EXPECT_EQ(victim_events, expected);
  EXPECT_EQ(result->dist.worker_deaths, 1u);
  EXPECT_EQ(result->dist.lease_expirations, 0u);
  EXPECT_GE(result->dist.net_disconnects, 1u);
  EXPECT_GE(result->dist.tasks_reassigned, 1u);
}

TEST_F(DistChaosTest, SocketBackendSurvivesInjectedFrameChaos) {
  // Deterministic transport chaos at both ends of the channel:
  //  - coordinator side: one mid-frame truncation (tears a worker's
  //    connection — it must redial and resume its identity), one dropped
  //    frame (its task recovers via the shortened lease), and random
  //    small delays;
  //  - worker side: random small delays on the reply path.
  // Under all of that, results stay bit-identical to the thread backend.
  core::DM2tdOptions options = BaseOptions();
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = (root_ / "socket_chaos").string();
  options.process.task_lease_ms = 1500.0;
  options.process.net_faults =
      "truncate:after=3,times=1;drop:after=12,times=1;"
      "delay:prob=0.15,ms=4,seed=5";
  options.process.worker_net_faults = "delay:prob=0.15,ms=4,seed=11";
  auto result = core::DM2tdDecompose(subs_, partition_,
                                     model_->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "socket frame chaos");
  // The torn connection produced a disconnect + an in-lease reconnect.
  EXPECT_GE(result->dist.net_disconnects, 1u);
  EXPECT_GE(result->dist.net_reconnects, 1u);
}

TEST_F(DistChaosTest, SpeculativeExecutionRacesStragglerBitIdentical) {
  // p1map task 0's first attempt sleeps 2.5 s (cancel-aware); its three
  // siblings finish in milliseconds. Speculation launches a racing
  // attempt on an idle worker, the racer wins, and the straggling
  // attempt is cancelled — all without affecting the result bits.
  StragglerScope straggler("p1map:0:2500");
  core::DM2tdOptions options = BaseOptions();
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = (root_ / "speculate").string();
  options.process.speculation.enabled = true;
  options.process.speculation.quantile = 0.75;
  options.process.speculation.multiplier = 2.0;
  options.process.speculation.min_completed = 3;
  options.process.speculation.floor_ms = 100.0;
  int speculated = 0, won = 0, cancelled = 0;
  options.process.event_hook = [&](const core::DistEvent& event) {
    speculated += event.kind == "speculate";
    won += event.kind == "speculate_won";
    cancelled += event.kind == "speculate_cancelled";
  };
  auto result = core::DM2tdDecompose(subs_, partition_,
                                     model_->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBitIdentical(*result, baseline_, "speculative race");
  EXPECT_GE(result->dist.speculative_launched, 1u);
  EXPECT_GE(result->dist.speculative_won, 1u);
  EXPECT_GE(result->dist.speculative_cancelled, 1u);
  EXPECT_EQ(result->dist.speculative_launched,
            static_cast<std::uint64_t>(speculated));
  EXPECT_EQ(result->dist.speculative_won, static_cast<std::uint64_t>(won));
  EXPECT_EQ(result->dist.worker_deaths, 0u);
}

// ------------------------------------------- coordinator SIGTERM drain

/// Child body for the coordinator-drain subprocess test: a real SIGTERM
/// raised at the first p1 stage completion must drain the coordinator
/// (quit frames to the workers, join, surface kCancelled) via the same
/// cooperative-cancel path every other pipeline uses. Exits 42 on
/// success; other codes pinpoint the failed step.
void RunSigtermDrainChild(const core::SubEnsembles& subs,
                          const core::PfPartition& partition,
                          const std::vector<std::uint64_t>& shape,
                          core::DM2tdOptions options) {
  robust::CancelSource source;
  if (!robust::InstallCancelOnSignal(source)) _exit(3);
  bool drained = false;
  options.process.event_hook = [&drained](const core::DistEvent& event) {
    if (event.kind == "stage_done" && event.phase == "p1map") {
      std::raise(SIGTERM);
    }
    if (event.kind == "drain") drained = true;
  };
  robust::CancelScope scope(source.token());
  auto result = core::DM2tdDecompose(subs, partition, shape, options);
  if (result.ok()) _exit(4);  // the signal should have cancelled the run
  if (!robust::IsCancellation(result.status())) _exit(5);
  if (!drained) _exit(6);  // drain must go through the graceful path
  _exit(42);
}

TEST_F(DistChaosTest, CoordinatorSigtermDrainsWorkersGracefully) {
  // The child is forked by EXPECT_EXIT; run the parent effectively
  // single-threaded at the fork (the coordinator loop itself is
  // single-threaded, the worker pool lives in separate processes).
  const int previous_threads = parallel::GlobalThreads();
  parallel::SetGlobalThreads(1);

  core::DM2tdOptions options = BaseOptions();
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = (root_ / "drain").string();
  EXPECT_EXIT(RunSigtermDrainChild(subs_, partition_,
                                   model_->space().Shape(), options),
              ::testing::ExitedWithCode(42), "");

  parallel::SetGlobalThreads(previous_threads);
}

}  // namespace
}  // namespace m2td
