// Chaos soak harness (ctest -L chaos): seeded schedules combining
// failpoints, mid-phase cancellation, deadline expiry, and kill/resume,
// asserting the pipeline never hangs, never corrupts a checkpoint, and
// always surfaces a clean cancellation Status.
//
// Deterministic mid-phase triggers ride on the obs span listener (the
// same feed the watchdog uses): the listener fires a CancelSource — or
// raises SIGINT — at exactly the k-th open of a named phase span, so
// "cancel during the 3rd HOOI sweep" is reproducible, not timing-based.
// Because there is a single process-wide listener slot, these tests never
// run a watchdog concurrently with an armed trigger. The checkpointed
// ensemble-build tests trigger from a counting model wrapper instead: it
// cancels (or raises SIGINT) at exactly the k-th evaluated cell.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "same_tensor.h"
#include "tensor/hooi.h"
#include "tensor/sparse_tensor.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td {
namespace {

// ------------------------------------------- span-listener chaos triggers

std::atomic<int> g_span_hits{0};
std::atomic<int> g_trigger_at{0};
std::atomic<bool> g_raise_sigint{false};
robust::CancelSource* g_chaos_source = nullptr;
const char* g_trigger_span = nullptr;

void ChaosSpanListener(std::string_view name, bool begin) {
  if (!begin || g_trigger_span == nullptr || name != g_trigger_span) return;
  if (g_span_hits.fetch_add(1) + 1 != g_trigger_at.load()) return;
  if (g_raise_sigint.load()) {
    std::raise(SIGINT);
  } else if (g_chaos_source != nullptr) {
    g_chaos_source->Cancel(robust::CancelCause::kCancelled);
  }
}

/// RAII arming of the chaos listener: fires once, at the `at`-th open
/// (1-based) of the span named `span`.
class SpanTrigger {
 public:
  SpanTrigger(const char* span, int at, robust::CancelSource* source,
              bool raise_sigint = false) {
    g_span_hits.store(0);
    g_trigger_at.store(at);
    g_chaos_source = source;
    g_raise_sigint.store(raise_sigint);
    g_trigger_span = span;
    obs::SetSpanListener(&ChaosSpanListener);
  }
  ~SpanTrigger() {
    obs::SetSpanListener(nullptr);
    g_trigger_span = nullptr;
    g_chaos_source = nullptr;
    g_raise_sigint.store(false);
  }
  SpanTrigger(const SpanTrigger&) = delete;
  SpanTrigger& operator=(const SpanTrigger&) = delete;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    obs::SetMetricsEnabled(true);
  }
  void TearDown() override {
    obs::SetSpanListener(nullptr);
    robust::DisarmAllFailpoints();
    robust::SetGlobalRetryPolicy(robust::RetryPolicy{});
    robust::SetRetrySleeperForTest(nullptr);
    obs::SetMetricsEnabled(false);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::unique_ptr<ensemble::DynamicalSystemModel> PendulumModel(
    std::uint32_t resolution) {
  ensemble::ModelOptions options;
  options.parameter_resolution = resolution;
  options.time_resolution = resolution;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

tensor::SparseTensor RandomSparse(const std::vector<std::uint64_t>& shape,
                                  std::uint64_t nnz, std::uint64_t seed) {
  tensor::SparseTensor x(shape);
  Rng rng(seed);
  std::vector<std::uint32_t> idx(shape.size());
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(shape[m]));
    }
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

// ------------------------------------- counting-model ensemble triggers

/// Delegates to `inner` and, at the `at`-th Cell call (1-based), cancels
/// `source` — or raises a real SIGINT when `source` is null — before that
/// cell is evaluated. Ensemble builds evaluate a fiber's cells one after
/// another and simulate on the first, so with `at` on a fiber's first cell
/// the trigger lands inside that fiber's simulation.
class TriggeringModel : public ensemble::SimulationModel {
 public:
  TriggeringModel(ensemble::SimulationModel* inner, std::uint64_t at,
                  robust::CancelSource* source)
      : inner_(inner), at_(at), source_(source) {}

  const ensemble::ParameterSpace& space() const override {
    return inner_->space();
  }
  std::size_t time_mode() const override { return inner_->time_mode(); }
  double Cell(const std::vector<std::uint32_t>& indices) override {
    if (++calls_ == at_) {
      if (source_ != nullptr) {
        source_->Cancel(robust::CancelCause::kCancelled);
      } else {
        std::raise(SIGINT);
      }
    }
    return inner_->Cell(indices);
  }
  std::uint64_t SimulationsRun() const override {
    return inner_->SimulationsRun();
  }
  const std::string& name() const override { return inner_->name(); }

 private:
  ensemble::SimulationModel* inner_;
  std::uint64_t at_;
  robust::CancelSource* source_;
  std::uint64_t calls_ = 0;
};

/// The checkpointed build the ensemble chaos tests interrupt: 12 random
/// simulations in batches of 4 over a double pendulum whose trajectories
/// run 80 RK4 steps, long enough for the integrator's own cancellation
/// check (every 64 steps) to fire inside a simulation.
constexpr std::uint64_t kEnsembleBudget = 12;
constexpr std::uint64_t kEnsembleSeed = 17;
constexpr std::uint32_t kTimeResolution = 5;
/// First cell of fiber 5, the second fiber of batch 1: batch 0 is
/// journaled by then, batch 1 is in flight.
constexpr std::uint64_t kTriggerCell = 5 * kTimeResolution + 1;

std::unique_ptr<ensemble::DynamicalSystemModel> LongTrajectoryModel() {
  ensemble::ModelOptions options;
  options.parameter_resolution = 4;
  options.time_resolution = kTimeResolution;
  options.record_every = 20;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

Result<tensor::SparseTensor> BuildCheckpointedEnsemble(
    ensemble::SimulationModel* model, const std::string& checkpoint_dir,
    bool resume, ensemble::EnsembleBuildReport* report = nullptr) {
  ensemble::EnsembleBuildOptions options;
  options.batch_size = 4;
  options.checkpoint_dir = checkpoint_dir;
  options.resume = resume;
  Rng rng(kEnsembleSeed);
  return ensemble::BuildConventionalEnsembleRobust(
      model, ensemble::ConventionalScheme::kRandom, kEnsembleBudget, &rng,
      options, report);
}

/// The uninterrupted, uncheckpointed build with the same seed, on a model
/// instance of its own.
tensor::SparseTensor ReferenceEnsemble() {
  auto model = LongTrajectoryModel();
  Rng rng(kEnsembleSeed);
  auto reference = ensemble::BuildConventionalEnsemble(
      model.get(), ensemble::ConventionalScheme::kRandom, kEnsembleBudget,
      &rng);
  EXPECT_TRUE(reference.ok()) << reference.status();
  return std::move(reference).ValueOrDie();
}

/// Resumes the interrupted build on `model` and checks it restored exactly
/// the one journaled batch and reproduces the reference value for value.
void ExpectResumeMatchesReference(ensemble::SimulationModel* model,
                                  const std::string& checkpoint_dir) {
  ensemble::EnsembleBuildReport report;
  auto resumed =
      BuildCheckpointedEnsemble(model, checkpoint_dir, /*resume=*/true,
                                &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(report.batches_resumed, 1u);
  EXPECT_EQ(report.failed_simulations, 0u);
  EXPECT_EQ(report.simulations_kept, kEnsembleBudget);
  ExpectSameSparseTensor(*resumed, ReferenceEnsemble());
}

// --------------------------------------- deterministic mid-phase cancels

TEST_F(ChaosTest, HooiCancelledMidSweepReturnsBestSoFar) {
  tensor::SparseTensor x = RandomSparse({8, 8, 8}, 220, /*seed=*/21);
  tensor::HooiOptions options;
  options.max_iterations = 8;
  options.tolerance = 0.0;  // never converges: every sweep runs
  tensor::HooiInfo info;
  robust::CancelSource source;
  {
    SpanTrigger trigger("hooi_sweep", /*at=*/3, &source);
    robust::CancelScope scope(source.token());
    auto tucker = tensor::HooiSparse(x, {3, 3, 3}, options, &info);
    ASSERT_TRUE(tucker.ok()) << tucker.status();  // anytime: OK, not error
    EXPECT_EQ(tucker->core.shape(), (std::vector<std::uint64_t>{3, 3, 3}));
  }
  EXPECT_EQ(info.interrupted, robust::CancelCause::kCancelled);
  // The trigger fired at the open of sweep 3, so exactly two sweeps
  // completed and the best-so-far state is theirs.
  EXPECT_EQ(info.iterations, 2);
  EXPECT_FALSE(info.converged);
}

TEST_F(ChaosTest, ExpiredDeadlineFailsPipelineUpFront) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  core::M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  robust::CancelSource source(robust::Deadline::AfterMillis(-1.0));
  robust::CancelScope scope(source.token());
  auto result = core::M2tdDecompose(*subs, *partition, model->space().Shape(),
                                    options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ChaosTest, EnsembleBuildCancelMidBatchKeepsJournalAndResumesBitIdentical) {
  // Cancel inside batch 1's second simulation. The interrupted simulation
  // fails because of the cancellation, not because of its parameters: the
  // build must return kCancelled without journaling the short batch, and
  // the model must not remember the simulation as failed.
  auto model = LongTrajectoryModel();
  robust::CancelSource source;
  {
    TriggeringModel trigger(model.get(), kTriggerCell, &source);
    robust::CancelScope scope(source.token());
    ensemble::EnsembleBuildReport report;
    auto cancelled = BuildCheckpointedEnsemble(&trigger, Path("ckpt"),
                                               /*resume=*/false, &report);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(report.failed_simulations, 0u);
    EXPECT_EQ(report.replacement_draws, 0u);
  }
  // Same process, same model instance, cancellation cleared.
  ExpectResumeMatchesReference(model.get(), Path("ckpt"));
}

TEST_F(ChaosTest, MapReduceCancelMidPhaseDrainsWithoutRetrying) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  robust::SetRetrySleeperForTest([](double) {});
  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 2;
  options.retry.max_retries = 3;

  obs::GetCounter("robust.retry_attempts").Reset();
  robust::CancelSource source;
  Result<core::DM2tdResult> result = [&] {
    // In-band: fired as phase 1's second task starts.
    SpanTrigger trigger("reduce_task", 2, &source);
    robust::CancelScope scope(source.token());
    return core::DM2tdDecompose(*subs, *partition, model->space().Shape(),
                                options);
  }();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cancellation is not a task failure: the retry layer must not replay.
  EXPECT_EQ(obs::GetCounter("robust.retry_attempts").value(), 0u);
}

// ------------------------------------------------------------ seeded soak

TEST_F(ChaosTest, SeededScheduleSoakNeverHangsOrMiscounts) {
  // Each seed arms a different combination of probabilistic failpoints,
  // deadlines, and an asynchronous canceller; the run may succeed, be
  // cancelled, deadline-exceed, or exhaust retries — but it must always
  // return a clean Status (the test completing at all proves no hang,
  // and ASAN/TSAN runs of this binary prove no corruption).
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  robust::SetRetrySleeperForTest([](double) {});

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    core::DM2tdOptions options;
    options.ranks = std::vector<std::uint64_t>(5, 2);
    options.num_workers = 2;
    options.retry.max_retries = 6;
    ASSERT_TRUE(robust::ArmFailpointsFromString(
                    "mapreduce.reduce_task:prob=0.25,seed=" +
                    std::to_string(seed))
                    .ok());
    robust::CancelSource source(
        seed % 2 == 1 ? robust::Deadline::AfterMillis(5.0 * double(seed))
                      : robust::Deadline::Infinite());
    std::thread canceller;
    if (seed % 3 == 2) {
      canceller = std::thread([&source, seed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2 + seed));
        source.Cancel();
      });
    }
    Result<core::DM2tdResult> result = [&] {
      robust::CancelScope scope(source.token());
      return core::DM2tdDecompose(*subs, *partition, model->space().Shape(),
                                  options);
    }();
    if (canceller.joinable()) canceller.join();
    robust::DisarmAllFailpoints();
    if (result.ok()) {
      EXPECT_EQ(result->tucker.core.shape(),
                (std::vector<std::uint64_t>(5, 2)))
          << "seed " << seed;
    } else {
      const StatusCode code = result.status().code();
      EXPECT_TRUE(robust::IsCancellation(result.status()) ||
                  code == StatusCode::kInternal)
          << "seed " << seed << ": " << result.status();
    }
  }
}

// ------------------------------------------------ SIGINT graceful drain

/// Child body for the SIGINT-drain subprocess test: raises a real SIGINT
/// inside batch 1's second simulation, expects the installed handler +
/// cooperative checks to drain the build with batch 0 journaled, then
/// exits 42 on success (any other exit code pinpoints the failed step).
void RunSigintDrainChild(const std::string& checkpoint_dir) {
  robust::CancelSource source;
  if (!robust::InstallCancelOnSignal(source)) _exit(3);
  auto model = LongTrajectoryModel();
  TriggeringModel trigger(model.get(), kTriggerCell, /*source=*/nullptr);
  robust::CancelScope scope(source.token());
  auto result =
      BuildCheckpointedEnsemble(&trigger, checkpoint_dir, /*resume=*/false);
  if (result.ok()) _exit(4);  // the signal should have cancelled the run
  if (result.status().code() != StatusCode::kCancelled) _exit(5);
  if (!std::filesystem::exists(std::filesystem::path(checkpoint_dir) /
                               "journal.m2td")) {
    _exit(6);  // drain must leave a valid journal behind
  }
  _exit(42);
}

TEST_F(ChaosTest, SigintDrainFlushesJournalAndResumeIsBitIdentical) {
  // The child is forked by EXPECT_EXIT, so the process must be effectively
  // single-threaded at the fork: a 1-thread global pool runs every region
  // inline on the initiator (no worker threads at all).
  const int previous_threads = parallel::GlobalThreads();
  parallel::SetGlobalThreads(1);

  EXPECT_EXIT(RunSigintDrainChild(Path("ckpt")),
              ::testing::ExitedWithCode(42), "");

  // The journal the child flushed on SIGINT lives on the shared
  // filesystem; resuming from it must reproduce the uninterrupted build
  // value for value.
  auto model = LongTrajectoryModel();
  ExpectResumeMatchesReference(model.get(), Path("ckpt"));

  parallel::SetGlobalThreads(previous_threads);
}

}  // namespace
}  // namespace m2td
