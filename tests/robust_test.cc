// Tests for the fault-tolerance subsystem (src/robust/) and its wiring
// through the pipeline: deterministic failpoints, retry/backoff, the CRC'd
// durable shuffle store, checkpoint journals, MapReduce task retry, and
// budget-preserving, checkpoint-resumable ensemble builds.
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
#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "io/shuffle_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/crc32.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "robust/watchdog.h"
#include "same_tensor.h"
#include "tensor/tucker.h"
#include "util/atomic_file.h"
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
  const Status failed = util::AtomicWriteFile(
      path, [](const std::string&) { return Status::IOError("nope"); });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(util::TempPathFor(path)));

  ASSERT_TRUE(util::AtomicWriteFile(path, [](const std::string& tmp) {
                std::ofstream out(tmp);
                out << "payload";
                return out ? Status::OK() : Status::IOError("write");
              }).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(util::TempPathFor(path)));
}

// ----------------------------------------------------------- shuffle store

/// Segment `i` of the three-segment file the shuffle-store tests write.
std::string TestSegment(std::size_t i) {
  return "segment " + std::to_string(i) + ":" +
         std::string(24, static_cast<char>('a' + i));
}

/// The `.tmp` files anywhere under `dir`.
std::vector<std::string> Temporaries(const std::string& dir) {
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
      found.push_back(path);
    }
  }
  return found;
}

TEST_F(RobustTest, ShuffleStoreWriteAndCommitFailuresHealWithoutTemporaries) {
  auto store = io::ShuffleStore::Create(Path("job"));
  ASSERT_TRUE(store.ok()) << store.status();
  // Without retries an injected write failure surfaces, leaving nothing.
  ASSERT_TRUE(
      robust::ArmFailpointsFromString("shuffle_store.write_blob:times=1").ok());
  EXPECT_FALSE(store->WriteAttempt("p1map", 0, 0, 3, TestSegment).ok());
  EXPECT_EQ(Temporaries(Path("job")), std::vector<std::string>());

  // With retries, injected write and commit failures heal.
  ASSERT_TRUE(robust::ArmFailpointsFromString(
                  "shuffle_store.write_blob:times=2;shuffle_store.commit:"
                  "times=1")
                  .ok());
  robust::RetryPolicy policy;
  policy.max_retries = 2;
  robust::SetGlobalRetryPolicy(policy);
  robust::SetRetrySleeperForTest([](double) {});
  ASSERT_TRUE(store->WriteFile("input/cells", 3, TestSegment).ok());
  ASSERT_TRUE(
      store->WriteAttempt("p1map", 0, 1, 3, TestSegment, /*records=*/7).ok());
  ASSERT_TRUE(store->CommitAttempt("p1map", 0, 1).ok());
  EXPECT_EQ(robust::FailpointFires("shuffle_store.write_blob"), 2u);
  EXPECT_EQ(robust::FailpointFires("shuffle_store.commit"), 1u);
  EXPECT_EQ(Temporaries(Path("job")), std::vector<std::string>());

  auto header = store->ReadHeader(io::ShuffleStore::TaskFileName("p1map", 0),
                                  "p1map:0");
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->attempt, 1);
  EXPECT_EQ(header->records, 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    auto segment = store->ReadSegment("input/cells", i, "input");
    ASSERT_TRUE(segment.ok()) << segment.status();
    EXPECT_EQ(*segment, TestSegment(i));
  }
}

TEST_F(RobustTest, CorruptedShuffleSegmentSurfacesDataLoss) {
  auto store = io::ShuffleStore::Create(Path("job"));
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->WriteFile("input/cells", 3, TestSegment).ok());
  {
    // Flip one payload byte of segment 1 behind the store's back.
    std::fstream file(Path("job/input/cells"),
                      std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff offset = static_cast<std::streamoff>(
        io::ShuffleStore::HeaderBytes(3) + TestSegment(0).size() + 3);
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  obs::GetCounter("io.crc_failures").Reset();
  auto corrupt = store->ReadSegment("input/cells", 1, "input");
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(obs::GetCounter("io.crc_failures").value(), 1u);
  // The other segments keep their own CRCs and stay readable.
  auto intact = store->ReadSegment("input/cells", 0, "input");
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_EQ(*intact, TestSegment(0));
  // DataLoss is not retryable: a raised retry policy must not mask it.
  robust::RetryPolicy policy;
  policy.max_retries = 3;
  robust::SetGlobalRetryPolicy(policy);
  robust::SetRetrySleeperForTest([](double) {});
  obs::GetCounter("robust.retry_attempts").Reset();
  EXPECT_EQ(store->ReadSegment("input/cells", 1, "input").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(obs::GetCounter("robust.retry_attempts").value(), 0u);
}

TEST_F(RobustTest, TransientReadFailureHealedByGlobalRetry) {
  auto store = io::ShuffleStore::Create(Path("job"));
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->WriteFile("input/cells", 3, TestSegment).ok());

  ASSERT_TRUE(
      robust::ArmFailpointsFromString("shuffle_store.read_blob:times=1").ok());
  // Without retries the injected failure surfaces...
  EXPECT_FALSE(store->ReadSegment("input/cells", 1, "input").ok());
  // ...with retries the same injection self-heals.
  ASSERT_TRUE(
      robust::ArmFailpointsFromString("shuffle_store.read_blob:times=1").ok());
  robust::RetryPolicy policy;
  policy.max_retries = 2;
  robust::SetGlobalRetryPolicy(policy);
  robust::SetRetrySleeperForTest([](double) {});
  auto healed = store->ReadSegment("input/cells", 1, "input");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(*healed, TestSegment(1));
  EXPECT_EQ(robust::FailpointFires("shuffle_store.read_blob"), 1u);
}

// ------------------------------------------------------ checkpoint journal

TEST_F(RobustTest, JournalDropsTornFinalLine) {
  const std::string ckpt = Path("ckpt");
  {
    auto journal = robust::CheckpointJournal::Open(ckpt, "fp-1", false);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Mark("phase.a").ok());
    ASSERT_TRUE(journal->Mark("phase.b").ok());
  }
  {
    // Simulate a crash mid-append: a final line with no newline.
    std::ofstream out(ckpt + "/journal.m2td",
                      std::ios::binary | std::ios::app);
    out << "mark phase.c";
  }
  auto resumed = robust::CheckpointJournal::Open(ckpt, "fp-1", true);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->NumMarks(), 2u);
  EXPECT_TRUE(resumed->Contains("phase.a"));
  EXPECT_TRUE(resumed->Contains("phase.b"));
  EXPECT_FALSE(resumed->Contains("phase.c"));
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

/// Runs DM2TD under an armed mapreduce.reduce_task failpoint and asserts
/// the result equals the clean run's bit-for-bit (task replays are pure).
/// D-M2TD runs two phase-1 tasks (one per sub-tensor), then three phase-2
/// tasks here.
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

TEST_F(RobustTest, Dm2tdHealsPhase2TaskFailures) {
  // The two phase-1 tasks pass; the first phase-2 task fails twice.
  ExpectDm2tdSurvivesInjection("mapreduce.reduce_task:after=2,times=2",
                               /*max_retries=*/3);
}

TEST_F(RobustTest, Dm2tdHealsProbabilisticTaskFailures) {
  // prob=0.2 per eligible hit; generous retries keep the chance of a task
  // exhausting all attempts (0.2^9 per chain) out of flake territory.
  // Seed 13 fires on the first two draws, so one task fails twice before
  // it heals.
  ExpectDm2tdSurvivesInjection("mapreduce.reduce_task:prob=0.2,seed=13",
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
      robust::ArmFailpointsFromString("mapreduce.reduce_task:times=1").ok());
  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     model->space().Shape(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
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

TEST_F(RobustTest, KilledEnsembleBuildResumesBitIdenticalAtEveryBatch) {
  // 14 simulations in batches of 3: five batches, the last one short. A
  // clean, uncheckpointed build with the same seed is the reference every
  // resumed build must reproduce value for value.
  constexpr std::uint64_t kBudget = 14;
  constexpr std::uint64_t kBatches = 5;
  auto model = PendulumModel(5);
  Rng reference_rng(5);
  auto reference = ensemble::BuildConventionalEnsemble(
      model.get(), ensemble::ConventionalScheme::kRandom, kBudget,
      &reference_rng);
  ASSERT_TRUE(reference.ok()) << reference.status();

  auto build = [&](const ensemble::EnsembleBuildOptions& options,
                   ensemble::EnsembleBuildReport* report) {
    Rng rng(5);
    return ensemble::BuildConventionalEnsembleRobust(
        model.get(), ensemble::ConventionalScheme::kRandom, kBudget, &rng,
        options, report);
  };
  for (std::uint64_t killed_at = 0; killed_at < kBatches; ++killed_at) {
    SCOPED_TRACE("killed at batch " + std::to_string(killed_at));
    ensemble::EnsembleBuildOptions options;
    options.batch_size = 3;
    options.checkpoint_dir = Path("ckpt_" + std::to_string(killed_at));

    // The kill lands at the top of batch `killed_at`, after every earlier
    // batch was journaled.
    ASSERT_TRUE(robust::ArmFailpointsFromString(
                    "ensemble.batch:after=" + std::to_string(killed_at))
                    .ok());
    auto killed = build(options, nullptr);
    robust::DisarmAllFailpoints();
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kInternal);

    // A second kill during the resume, one fresh batch further on, must
    // leave a journal the final resume still reproduces.
    options.resume = true;
    ensemble::EnsembleBuildReport report;
    if (killed_at + 1 < kBatches) {
      ASSERT_TRUE(
          robust::ArmFailpointsFromString("ensemble.batch:after=1").ok());
      auto killed_again = build(options, &report);
      robust::DisarmAllFailpoints();
      ASSERT_FALSE(killed_again.ok());
      EXPECT_EQ(report.batches_resumed, killed_at);
    }

    auto resumed = build(options, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(report.batches_resumed,
              std::min<std::uint64_t>(killed_at + 1, kBatches - 1));
    EXPECT_EQ(report.simulations_kept, kBudget);
    ExpectSameSparseTensor(*resumed, *reference);
  }
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
