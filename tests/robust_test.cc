// Tests for the fault-tolerance subsystem (src/robust/) and its wiring
// through the pipeline: deterministic failpoints, retry/backoff, CRC'd
// durable chunk IO, checkpoint journals, MapReduce task retry, OOC
// checkpoint-resume, and budget-preserving ensemble rebuilds.
//
// Everything here is deterministic: backoff delays are collected through
// SetRetrySleeperForTest instead of slept, and probabilistic failpoints
// are seeded.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/m2td.h"
#include "core/ooc_m2td.h"
#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "io/chunk_store.h"
#include "io/tensor_io.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/crc32.h"
#include "robust/durable.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "robust/watchdog.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td {
namespace {

/// Base fixture: a private temp directory, metrics on, and guaranteed
/// cleanup of every piece of process-global robustness state so tests
/// cannot leak armed failpoints or a raised retry policy into each other.
class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_robust_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    obs::SetMetricsEnabled(true);
  }
  void TearDown() override {
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

tensor::SparseTensor SmallTensor() {
  tensor::SparseTensor x({4, 4});
  Rng rng(1);
  std::vector<std::uint32_t> idx(2);
  for (int e = 0; e < 10; ++e) {
    idx[0] = static_cast<std::uint32_t>(rng.UniformInt(4));
    idx[1] = static_cast<std::uint32_t>(rng.UniformInt(4));
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

// ------------------------------------------------------------- failpoints

TEST_F(RobustTest, ParseFailpointSpecFields) {
  auto spec =
      robust::ParseFailpointSpec("io.write:after=2,times=3,prob=0.5,seed=7");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "io.write");
  EXPECT_EQ(spec->after, 2u);
  EXPECT_EQ(spec->times, 3u);
  EXPECT_DOUBLE_EQ(spec->probability, 0.5);
  EXPECT_EQ(spec->seed, 7u);

  auto bare = robust::ParseFailpointSpec("just.a.name");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->after, 0u);
  EXPECT_DOUBLE_EQ(bare->probability, 1.0);
}

TEST_F(RobustTest, ParseFailpointSpecRejectsMalformed) {
  for (const char* bad :
       {"", ":times=1", "fp:times", "fp:times=x", "fp:prob=1.5", "fp:prob=0",
        "fp:bogus=3"}) {
    auto spec = robust::ParseFailpointSpec(bad);
    EXPECT_FALSE(spec.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(RobustTest, NothingArmedIsAlwaysOk) {
  EXPECT_TRUE(robust::CheckFailpoint("never.armed").ok());
}

TEST_F(RobustTest, AfterAndTimesWindowTheFires) {
  ASSERT_TRUE(robust::ArmFailpointsFromString("fp.win:after=2,times=2").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(!robust::CheckFailpoint("fp.win").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false,
                                      false}));
  EXPECT_EQ(robust::FailpointHits("fp.win"), 6u);
  EXPECT_EQ(robust::FailpointFires("fp.win"), 2u);
  // A fire surfaces as a retryable Internal error naming the failpoint.
  robust::DisarmAllFailpoints();
  ASSERT_TRUE(robust::ArmFailpointsFromString("fp.win").ok());
  const Status fire = robust::CheckFailpoint("fp.win");
  EXPECT_EQ(fire.code(), StatusCode::kInternal);
  EXPECT_NE(fire.message().find("fp.win"), std::string::npos);
  EXPECT_TRUE(robust::IsRetryable(fire));
}

TEST_F(RobustTest, ProbabilisticFiringIsAPureFunctionOfSeed) {
  auto pattern_with = [](std::uint64_t seed) {
    robust::FailpointSpec spec;
    spec.name = "fp.prob";
    spec.probability = 0.3;
    spec.seed = seed;
    EXPECT_TRUE(robust::ArmFailpoint(spec).ok());
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(!robust::CheckFailpoint("fp.prob").ok());
    }
    robust::DisarmFailpoint("fp.prob");
    return pattern;
  };
  const std::vector<bool> a = pattern_with(42);
  const std::vector<bool> b = pattern_with(42);
  const std::vector<bool> c = pattern_with(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~30% of 200 eligible hits fire; wide bounds keep this deterministic in
  // spirit (the pattern itself is already exactly reproducible).
  const std::size_t fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 20u);
  EXPECT_LT(fires, 120u);
}

TEST_F(RobustTest, ArmedListAndDisarm) {
  ASSERT_TRUE(robust::ArmFailpointsFromString("fp.a;fp.b:times=1").ok());
  const std::vector<std::string> armed = robust::ArmedFailpoints();
  EXPECT_EQ(armed.size(), 2u);
  robust::DisarmFailpoint("fp.a");
  EXPECT_TRUE(robust::CheckFailpoint("fp.a").ok());
  EXPECT_FALSE(robust::CheckFailpoint("fp.b").ok());
  EXPECT_FALSE(robust::ArmFailpointsFromString("fp.c:prob=7").ok());
}

// ------------------------------------------------------------------ retry

TEST_F(RobustTest, BackoffScheduleIsDeterministicAndCapped) {
  robust::RetryPolicy policy;
  policy.max_retries = 6;
  policy.base_backoff_ms = 2.0;
  policy.max_backoff_ms = 20.0;
  policy.multiplier = 3.0;
  policy.jitter_fraction = 0.5;
  policy.seed = 9;
  const std::vector<double> a = robust::BackoffSchedule(policy);
  const std::vector<double> b = robust::BackoffSchedule(policy);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double raw = std::min(policy.max_backoff_ms,
                                policy.base_backoff_ms *
                                    std::pow(policy.multiplier, double(i)));
    EXPECT_GE(a[i], raw * (1.0 - policy.jitter_fraction));
    EXPECT_LE(a[i], raw);
  }
}

TEST_F(RobustTest, SleeperObservesExactlyTheBackoffSchedule) {
  robust::RetryPolicy policy;
  policy.max_retries = 3;
  policy.seed = 17;
  std::vector<double> slept;
  robust::SetRetrySleeperForTest(
      [&slept](double ms) { slept.push_back(ms); });
  obs::GetCounter("robust.retry_exhausted").Reset();
  const Status out = robust::RetryStatusCall(
      policy, "test.always_fails",
      []() { return Status::IOError("transient"); });
  EXPECT_EQ(out.code(), StatusCode::kIOError);
  // Delays between the 4 attempts must be the policy's published schedule —
  // asserting on collected values, never on wall-clock.
  EXPECT_EQ(slept, robust::BackoffSchedule(policy));
  EXPECT_EQ(obs::GetCounter("robust.retry_exhausted").value(), 1u);
}

TEST_F(RobustTest, RetryHealsTransientFailures) {
  robust::RetryPolicy policy;
  policy.max_retries = 4;
  robust::SetRetrySleeperForTest([](double) {});
  obs::GetCounter("robust.retry_attempts").Reset();
  obs::GetCounter("robust.retry_success").Reset();
  int calls = 0;
  auto result = robust::RetryCall<int>(
      policy, "test.flaky", [&calls]() -> Result<int> {
        if (++calls < 3) return Status::IOError("not yet");
        return 41 + 1;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs::GetCounter("robust.retry_attempts").value(), 2u);
  EXPECT_EQ(obs::GetCounter("robust.retry_success").value(), 1u);
}

TEST_F(RobustTest, DataLossIsNeverRetried) {
  robust::RetryPolicy policy;
  policy.max_retries = 5;
  std::vector<double> slept;
  robust::SetRetrySleeperForTest(
      [&slept](double ms) { slept.push_back(ms); });
  int calls = 0;
  const Status out = robust::RetryStatusCall(
      policy, "test.corrupt", [&calls]() {
        ++calls;
        return Status::DataLoss("checksum mismatch");
      });
  EXPECT_EQ(out.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
  EXPECT_FALSE(robust::IsRetryable(out));
}

// --------------------------------------------------------- durable chunk IO

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the reference the
/// table-driven Crc32 must agree with on every input.
std::uint32_t BitwiseCrc32(const unsigned char* data, std::size_t size,
                           std::uint32_t crc = 0) {
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

TEST_F(RobustTest, Crc32KnownAnswers) {
  EXPECT_EQ(robust::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(robust::Crc32("", 0), 0u);
  EXPECT_EQ(robust::Crc32("a", 1), 0xE8B7BE43u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(robust::Crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST_F(RobustTest, Crc32MatchesBitwiseReferenceUnalignedAndChained) {
  Rng rng(29);
  std::vector<unsigned char> buffer(1031);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.UniformInt(256));
  }
  // Every start offset mod 8 and lengths straddling the 8-byte stride.
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 1000u}) {
      const unsigned char* p = buffer.data() + offset;
      EXPECT_EQ(robust::Crc32(p, size), BitwiseCrc32(p, size))
          << "offset " << offset << " size " << size;
    }
  }
  // Chaining over any split point equals one pass over the whole buffer.
  const std::uint32_t whole = BitwiseCrc32(buffer.data(), buffer.size());
  for (std::size_t split : {0u, 1u, 5u, 8u, 13u, 512u, 1030u, 1031u}) {
    const std::uint32_t head = robust::Crc32(buffer.data(), split);
    EXPECT_EQ(robust::Crc32(buffer.data() + split, buffer.size() - split,
                            head),
              whole)
        << "split " << split;
  }
}

TEST_F(RobustTest, AtomicWriteFileCleansUpOnWriterFailure) {
  const std::string path = Path("f.txt");
  const Status failed = robust::AtomicWriteFile(
      path, [](const std::string&) { return Status::IOError("nope"); });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(robust::TempPathFor(path)));

  ASSERT_TRUE(robust::AtomicWriteFile(path, [](const std::string& tmp) {
                std::ofstream out(tmp);
                out << "payload";
                return out ? Status::OK() : Status::IOError("write");
              }).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(robust::TempPathFor(path)));
}

TEST_F(RobustTest, ChunkStoreLeavesNoTemporaries) {
  auto store = io::ChunkStore::Create(Path("store"), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(SmallTensor()).ok());
  for (const auto& entry :
       std::filesystem::directory_iterator(Path("store"))) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "stray temporary " << entry.path();
  }
}

TEST_F(RobustTest, CorruptedChunkBlobSurfacesDataLoss) {
  auto store = io::ChunkStore::Create(Path("store"), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(SmallTensor()).ok());
  // Flip one payload byte in one blob behind the store's back.
  bool corrupted = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(Path("store"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("chunk_", 0) != 0) continue;
    std::fstream blob(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    blob.seekg(24);
    char byte = 0;
    blob.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    blob.seekp(24);
    blob.write(&byte, 1);
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  obs::GetCounter("io.crc_failures").Reset();
  auto all = store->ReadAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(obs::GetCounter("io.crc_failures").value(), 1u);
  // DataLoss is not retryable: a raised retry policy must not mask it.
  robust::RetryPolicy policy;
  policy.max_retries = 3;
  robust::SetGlobalRetryPolicy(policy);
  robust::SetRetrySleeperForTest([](double) {});
  EXPECT_EQ(store->ReadAll().status().code(), StatusCode::kDataLoss);
}

TEST_F(RobustTest, TransientReadFailureHealedByGlobalRetry) {
  auto store = io::ChunkStore::Create(Path("store"), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  const tensor::SparseTensor written = SmallTensor();
  ASSERT_TRUE(store->Write(written).ok());

  ASSERT_TRUE(
      robust::ArmFailpointsFromString("chunk_store.read_blob:times=1").ok());
  // Without retries the injected failure surfaces...
  auto failed = store->ReadAll();
  EXPECT_FALSE(failed.ok());
  // ...with retries the same injection self-heals.
  ASSERT_TRUE(
      robust::ArmFailpointsFromString("chunk_store.read_blob:times=1").ok());
  robust::RetryPolicy policy;
  policy.max_retries = 2;
  robust::SetGlobalRetryPolicy(policy);
  robust::SetRetrySleeperForTest([](double) {});
  auto healed = store->ReadAll();
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->NumNonZeros(), written.NumNonZeros());
  EXPECT_EQ(robust::FailpointFires("chunk_store.read_blob"), 1u);
}

// ------------------------------------------------------ checkpoint journal

TEST_F(RobustTest, JournalDropsTornFinalLine) {
  const std::string ckpt = Path("ckpt");
  {
    auto journal = robust::CheckpointJournal::Open(ckpt, "fp-1", false);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Mark("phase.a", "1").ok());
    ASSERT_TRUE(journal->Mark("phase.b", "2").ok());
  }
  {
    // Simulate a crash mid-append: a final line with no newline.
    std::ofstream out(ckpt + "/journal.m2td",
                      std::ios::binary | std::ios::app);
    out << "mark phase.c 3";
  }
  auto resumed = robust::CheckpointJournal::Open(ckpt, "fp-1", true);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->NumMarks(), 2u);
  EXPECT_TRUE(resumed->Contains("phase.a"));
  EXPECT_TRUE(resumed->Contains("phase.b"));
  EXPECT_FALSE(resumed->Contains("phase.c"));
  EXPECT_EQ(resumed->ValueOf("phase.b"), "2");
}

TEST_F(RobustTest, JournalRejectsFingerprintMismatch) {
  const std::string ckpt = Path("ckpt");
  {
    auto journal = robust::CheckpointJournal::Open(ckpt, "config-A", false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Mark("done").ok());
  }
  auto wrong = robust::CheckpointJournal::Open(ckpt, "config-B", true);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  // resume=false wipes instead, so a reconfigured run can reuse the dir.
  auto fresh = robust::CheckpointJournal::Open(ckpt, "config-B", false);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->NumMarks(), 0u);
}

// --------------------------------------------- MapReduce task retry (DM2TD)

std::unique_ptr<ensemble::DynamicalSystemModel> PendulumModel(
    std::uint32_t resolution) {
  ensemble::ModelOptions options;
  options.parameter_resolution = resolution;
  options.time_resolution = resolution;
  auto model = ensemble::MakeDoublePendulumModel(options);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

/// Runs DM2TD under an armed mapreduce.map_task failpoint and asserts the
/// result equals the clean run's bit-for-bit (task replays are pure).
void ExpectDm2tdSurvivesInjection(const std::string& failpoint_spec,
                                  int max_retries) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 3;
  auto clean = core::DM2tdDecompose(*subs, *partition,
                                    model->space().Shape(), options);
  ASSERT_TRUE(clean.ok()) << clean.status();

  robust::SetRetrySleeperForTest([](double) {});
  obs::GetCounter("robust.retry_attempts").Reset();
  ASSERT_TRUE(robust::ArmFailpointsFromString(failpoint_spec).ok());
  options.retry.max_retries = max_retries;
  auto injected = core::DM2tdDecompose(*subs, *partition,
                                       model->space().Shape(), options);
  robust::DisarmAllFailpoints();
  ASSERT_TRUE(injected.ok()) << injected.status();
  EXPECT_GE(obs::GetCounter("robust.retry_attempts").value(), 1u);

  EXPECT_EQ(injected->join_nnz, clean->join_nnz);
  const tensor::DenseTensor& core_clean = clean->tucker.core;
  const tensor::DenseTensor& core_injected = injected->tucker.core;
  ASSERT_EQ(core_injected.shape(), core_clean.shape());
  for (std::uint64_t i = 0; i < core_clean.NumElements(); ++i) {
    EXPECT_EQ(core_injected.flat(i), core_clean.flat(i)) << "core[" << i
                                                         << "]";
  }
}

TEST_F(RobustTest, Dm2tdHealsDeterministicMapTaskFailures) {
  ExpectDm2tdSurvivesInjection("mapreduce.map_task:times=2",
                               /*max_retries=*/3);
}

TEST_F(RobustTest, Dm2tdHealsProbabilisticMapTaskFailures) {
  // prob=0.2 per eligible hit; generous retries keep the chance of a task
  // exhausting all attempts (0.2^9 per chain) out of flake territory.
  ExpectDm2tdSurvivesInjection("mapreduce.map_task:prob=0.2,seed=11",
                               /*max_retries=*/8);
}

TEST_F(RobustTest, Dm2tdHealsReduceTaskFailures) {
  ExpectDm2tdSurvivesInjection("mapreduce.reduce_task:times=2",
                               /*max_retries=*/3);
}

TEST_F(RobustTest, Dm2tdWithoutRetriesStillFailsCleanly) {
  auto model = PendulumModel(4);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  ASSERT_TRUE(
      robust::ArmFailpointsFromString("mapreduce.map_task:times=1").ok());
  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     model->space().Shape(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ------------------------------------------------- OOC checkpoint-resume

TEST_F(RobustTest, KilledOocRunResumesBitIdentical) {
  auto model = PendulumModel(5);
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());
  auto store1 = io::ChunkStore::Create(Path("s1"), subs->x1.shape(),
                                       {2, 2, 2});
  auto store2 = io::ChunkStore::Create(Path("s2"), subs->x2.shape(),
                                       {2, 2, 2});
  ASSERT_TRUE(store1.ok() && store2.ok());
  ASSERT_TRUE(store1->Write(subs->x1).ok());
  ASSERT_TRUE(store2->Write(subs->x2).ok());

  core::M2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto uninterrupted = core::M2tdDecomposeFromStores(
      *store1, *store2, *partition, model->space().Shape(), options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();

  // Kill the run at the 4th pivot slab (of 5); snapshots every 2 slabs.
  core::OocCheckpointOptions checkpoint;
  checkpoint.checkpoint_dir = Path("ckpt");
  checkpoint.checkpoint_every = 2;
  ASSERT_TRUE(robust::ArmFailpointsFromString("ooc.slab:after=3").ok());
  auto killed = core::M2tdDecomposeFromStores(*store1, *store2, *partition,
                                              model->space().Shape(),
                                              options, checkpoint);
  robust::DisarmAllFailpoints();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kInternal);

  obs::GetCounter("robust.ooc_resumes").Reset();
  checkpoint.resume = true;
  auto resumed = core::M2tdDecomposeFromStores(*store1, *store2, *partition,
                                               model->space().Shape(),
                                               options, checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(obs::GetCounter("robust.ooc_resumes").value(), 1u);

  // Bit-identical, not merely close: the core is accumulated in a fixed
  // prefix order and snapshots round-trip doubles exactly.
  EXPECT_EQ(resumed->join_nnz, uninterrupted->join_nnz);
  const tensor::DenseTensor& core_a = uninterrupted->tucker.core;
  const tensor::DenseTensor& core_b = resumed->tucker.core;
  ASSERT_EQ(core_b.shape(), core_a.shape());
  for (std::uint64_t i = 0; i < core_a.NumElements(); ++i) {
    EXPECT_EQ(core_b.flat(i), core_a.flat(i)) << "core[" << i << "]";
  }
  ASSERT_EQ(resumed->tucker.factors.size(),
            uninterrupted->tucker.factors.size());
  for (std::size_t m = 0; m < uninterrupted->tucker.factors.size(); ++m) {
    const linalg::Matrix& fa = uninterrupted->tucker.factors[m];
    const linalg::Matrix& fb = resumed->tucker.factors[m];
    ASSERT_EQ(fb.rows(), fa.rows());
    ASSERT_EQ(fb.cols(), fa.cols());
    for (std::size_t i = 0; i < fa.rows(); ++i) {
      for (std::size_t j = 0; j < fa.cols(); ++j) {
        EXPECT_EQ(fb(i, j), fa(i, j)) << "factor " << m;
      }
    }
  }
}

// ------------------------------------------------- robust ensemble builds

TEST_F(RobustTest, FailedSimulationReplacedBudgetStaysExact) {
  auto model = PendulumModel(5);
  ASSERT_TRUE(robust::ArmFailpointsFromString("sim.trajectory:times=1").ok());
  obs::GetCounter("ensemble.failed_simulations").Reset();
  Rng rng(7);
  ensemble::EnsembleBuildOptions options;
  options.batch_size = 4;
  ensemble::EnsembleBuildReport report;
  auto built = ensemble::BuildConventionalEnsembleRobust(
      model.get(), ensemble::ConventionalScheme::kRandom, /*budget=*/10,
      &rng, options, &report);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(report.failed_simulations, 1u);
  EXPECT_GE(report.replacement_draws, 1u);
  EXPECT_EQ(report.simulations_kept, 10u);
  EXPECT_EQ(obs::GetCounter("ensemble.failed_simulations").value(), 1u);
  for (std::uint64_t e = 0; e < built->NumNonZeros(); ++e) {
    ASSERT_TRUE(std::isfinite(built->Value(e))) << "NaN leaked at " << e;
  }
}

TEST_F(RobustTest, KilledEnsembleBuildResumesFromCheckpoint) {
  auto model = PendulumModel(5);
  ensemble::EnsembleBuildOptions options;
  options.batch_size = 4;
  options.checkpoint_dir = Path("ckpt");

  // Fires from the second freshly simulated batch on: batch 0 lands on
  // disk, then the build dies.
  ASSERT_TRUE(robust::ArmFailpointsFromString("ensemble.batch:after=1").ok());
  Rng rng1(99);
  auto killed = ensemble::BuildConventionalEnsembleRobust(
      model.get(), ensemble::ConventionalScheme::kRandom, /*budget=*/12,
      &rng1, options);
  robust::DisarmAllFailpoints();
  ASSERT_FALSE(killed.ok());

  options.resume = true;
  Rng rng2(99);
  ensemble::EnsembleBuildReport report;
  auto resumed = ensemble::BuildConventionalEnsembleRobust(
      model.get(), ensemble::ConventionalScheme::kRandom, /*budget=*/12,
      &rng2, options, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_GE(report.batches_resumed, 1u);
  EXPECT_EQ(report.simulations_kept, 12u);
  EXPECT_GT(resumed->NumNonZeros(), 0u);

  // A clean, uncheckpointed build with the same seed is the reference: the
  // resumed tensor holds the same simulations.
  Rng rng3(99);
  auto reference = ensemble::BuildConventionalEnsemble(
      model.get(), ensemble::ConventionalScheme::kRandom, /*budget=*/12,
      &rng3);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(resumed->NumNonZeros(), reference->NumNonZeros());
}

// ------------------------------------------------- cooperative cancellation

TEST_F(RobustTest, DefaultTokenNeverFires) {
  robust::CancelToken token;
  EXPECT_FALSE(token.CanBeCancelled());
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_TRUE(token.CheckCancel().ok());
  EXPECT_EQ(token.cause(), robust::CancelCause::kNone);
}

TEST_F(RobustTest, CancelPropagatesToChildrenNeverToParents) {
  robust::CancelSource root;
  robust::CancelSource child(root.token());
  EXPECT_FALSE(child.token().IsCancelled());

  child.Cancel();
  EXPECT_TRUE(child.token().IsCancelled());
  EXPECT_FALSE(root.token().IsCancelled());

  robust::CancelSource root2;
  robust::CancelSource child2(root2.token());
  robust::CancelSource grandchild(child2.token());
  root2.Cancel();
  EXPECT_TRUE(child2.token().IsCancelled());
  EXPECT_TRUE(grandchild.token().IsCancelled());
  EXPECT_EQ(grandchild.token().cause(), robust::CancelCause::kCancelled);
}

TEST_F(RobustTest, ExpiredDeadlineFiresDeadlineExceeded) {
  robust::CancelSource source(robust::Deadline::AfterMillis(-1.0));
  EXPECT_TRUE(source.token().IsCancelled());
  EXPECT_EQ(source.token().cause(), robust::CancelCause::kDeadlineExceeded);
  const Status status = source.token().CheckCancel();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(robust::IsCancellation(status));
  EXPECT_FALSE(robust::IsRetryable(status));
}

TEST_F(RobustTest, ChildInheritsExpiredParentDeadlineLazily) {
  robust::CancelSource root(robust::Deadline::AfterMillis(-1.0));
  // The child itself has no deadline; its token observes the parent's
  // expiry through the lazy parent walk.
  robust::CancelSource child(root.token());
  EXPECT_EQ(child.token().cause(), robust::CancelCause::kDeadlineExceeded);
}

TEST_F(RobustTest, WaitForMillisReturnsImmediatelyWhenCancelled) {
  robust::CancelSource source;
  source.Cancel();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(source.token().WaitForMillis(10'000));
  // Far below the requested 10 s — the wait was interrupted, not served.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
}

TEST_F(RobustTest, CancelScopeInstallsAndRestoresAmbientToken) {
  EXPECT_FALSE(robust::CurrentCancelToken().CanBeCancelled());
  robust::CancelSource source;
  {
    robust::CancelScope scope(source.token());
    EXPECT_TRUE(robust::CurrentCancelToken().CanBeCancelled());
    EXPECT_TRUE(robust::CheckCancelled().ok());
    source.Cancel();
    EXPECT_EQ(robust::CheckCancelled().code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(robust::CheckCancelled().ok());
  EXPECT_FALSE(robust::CurrentCancelToken().CanBeCancelled());
}

TEST_F(RobustTest, CancelledErrorRoundTripsToStatus) {
  const robust::CancelledError error(robust::CancelCause::kDeadlineExceeded);
  EXPECT_EQ(error.cause(), robust::CancelCause::kDeadlineExceeded);
  EXPECT_EQ(error.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(robust::StatusFromCause(robust::CancelCause::kNone).code(),
            StatusCode::kOk);
  EXPECT_STREQ(robust::CancelCauseName(robust::CancelCause::kCancelled),
               "cancelled");
}

// ------------------------------------------------- interruptible backoff

TEST_F(RobustTest, CancelledRetryReturnsCancelledWithoutSleeping) {
  std::vector<double> sleeps;
  robust::SetRetrySleeperForTest(
      [&sleeps](double ms) { sleeps.push_back(ms); });
  robust::RetryPolicy policy;
  policy.max_retries = 5;

  robust::CancelSource source;
  source.Cancel();
  robust::CancelScope scope(source.token());
  int attempts = 0;
  const Status status =
      robust::RetryStatusCall(policy, "op", [&attempts]() {
        ++attempts;
        return Status::IOError("flaky");
      });
  // The retryable failure is eclipsed by the fired token: Cancelled comes
  // back immediately, after the one attempt already in flight and with no
  // backoff wait performed.
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST_F(RobustTest, RetryBackoffInterruptedMidWait) {
  robust::CancelSource source;
  std::vector<double> sleeps;
  robust::SetRetrySleeperForTest([&](double ms) {
    sleeps.push_back(ms);
    source.Cancel();  // fires while the backoff wait is in progress
  });
  robust::RetryPolicy policy;
  policy.max_retries = 5;
  robust::CancelScope scope(source.token());
  int attempts = 0;
  const Status status = robust::RetryStatusCall(policy, "op", [&]() {
    ++attempts;
    return Status::IOError("flaky");
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(sleeps.size(), 1u);
}

TEST_F(RobustTest, CancellationStatusFromOperationIsNeverRetried) {
  std::vector<double> sleeps;
  robust::SetRetrySleeperForTest(
      [&sleeps](double ms) { sleeps.push_back(ms); });
  robust::RetryPolicy policy;
  policy.max_retries = 5;
  int attempts = 0;
  const Status status = robust::RetryStatusCall(policy, "op", [&]() {
    ++attempts;
    return Status::Cancelled("stop requested");
  });
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST_F(RobustTest, RetryCallValueFlavorHonoursCancellation) {
  robust::SetRetrySleeperForTest([](double) {});
  robust::RetryPolicy policy;
  policy.max_retries = 3;
  robust::CancelSource source;
  source.Cancel();
  robust::CancelScope scope(source.token());
  const Result<int> result = robust::RetryCall<int>(
      policy, "op", []() -> Result<int> { return Status::IOError("flaky"); });
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ------------------------------------------------------------- watchdog

TEST_F(RobustTest, WatchdogReportsSoftStall) {
  robust::WatchdogOptions options;
  options.soft_budget_ms = 5.0;
  options.poll_interval_ms = 2.0;
  options.queue_depth_fn = [] { return std::size_t{0}; };
  robust::Watchdog watchdog(options);
  ASSERT_TRUE(watchdog.Start());
  {
    obs::ObsSpan span("stalling_phase");
    for (int i = 0; i < 400 && watchdog.stalls() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  watchdog.Stop();
  EXPECT_GE(watchdog.stalls(), 1u);
  EXPECT_FALSE(watchdog.hard_fired());
  EXPECT_GE(obs::GetCounter("robust.watchdog.stalls").value(), 1u);
}

TEST_F(RobustTest, WatchdogHardBudgetFiresSource) {
  robust::CancelSource source;
  robust::WatchdogOptions options;
  options.soft_budget_ms = 2.0;
  options.hard_budget_ms = 6.0;
  options.poll_interval_ms = 2.0;
  options.source = &source;
  robust::Watchdog watchdog(options);
  ASSERT_TRUE(watchdog.Start());
  {
    obs::ObsSpan span("hung_phase");
    for (int i = 0; i < 400 && !source.token().IsCancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  watchdog.Stop();
  EXPECT_TRUE(watchdog.hard_fired());
  EXPECT_TRUE(source.token().IsCancelled());
  EXPECT_EQ(source.token().cause(), robust::CancelCause::kDeadlineExceeded);
}

TEST_F(RobustTest, OnlyOneWatchdogRunsAtATime) {
  robust::WatchdogOptions options;
  options.soft_budget_ms = 1000.0;
  robust::Watchdog first(options);
  ASSERT_TRUE(first.Start());
  robust::Watchdog second(options);
  EXPECT_FALSE(second.Start());
  first.Stop();
  EXPECT_TRUE(second.Start());
  second.Stop();
}

}  // namespace
}  // namespace m2td
