// Multi-process D-M2TD backend tests (ctest -L distributed): durable
// shuffle-store semantics (CRC footer, attempt-scoped commits, orphan
// GC), the binary record codecs and task wire frames shared by the
// coordinator and m2td_worker, and end-to-end bit-identity of the
// process backend against the in-process thread backend.
//
// The worker binary location is baked in at compile time via the
// M2TD_WORKER_BIN definition (see tests/CMakeLists.txt), so the test
// works from any CWD ctest chooses.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/dm2td_tasks.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/chunk_store.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "mapreduce/wire.h"
#include "obs/metrics.h"
#include "robust/heartbeat.h"
#include "tensor/tucker.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace m2td {
namespace {

namespace tasks = core::dm2td_tasks;
using io::ShuffleStore;

class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("dist_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string Path(const std::string& leaf) const {
    return (root_ / leaf).string();
  }

  std::filesystem::path root_;
};

// ------------------------------------------------------- ShuffleStore

TEST_F(DistTest, BlobRoundtrip) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string name = ShuffleStore::BlobName("p1map", 3, 0, "shard2");
  EXPECT_EQ(name, "p1map/task3/a0/shard2");
  const std::string payload("binary\0payload", 14);
  ASSERT_TRUE(store->WriteBlob(name, payload).ok());
  auto read = store->ReadBlob(name, "p1map:3");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  EXPECT_TRUE(store->BlobExists(name));
  EXPECT_FALSE(store->BlobExists("p1map/task3/a0/other"));
}

TEST_F(DistTest, CorruptedBlobIsDataLossNamingPathAndTask) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string name = ShuffleStore::BlobName("p2map", 5, 1, "shard0");
  ASSERT_TRUE(store->WriteBlob(name, std::string(256, 'x')).ok());

  // Flip one payload byte under the CRC footer.
  const std::string path = Path("store") + "/" + name;
  {
    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(17);
    file.put('y');
  }

  auto read = store->ReadBlob(name, "p2map:5");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // The message must name both the blob and the producing task so the
  // coordinator can re-execute the producer.
  EXPECT_NE(read.status().message().find(name), std::string::npos)
      << read.status();
  EXPECT_NE(read.status().message().find("[task p2map:5]"),
            std::string::npos)
      << read.status();
}

TEST_F(DistTest, CommitLifecycle) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->ReadCommit("p1map", 0).status().code(),
            StatusCode::kNotFound);

  const std::string blob = ShuffleStore::BlobName("p1map", 0, 2, "shard1");
  ASSERT_TRUE(store->WriteBlob(blob, "abc").ok());
  ASSERT_TRUE(store->CommitTask("p1map", 0, 2, {blob}).ok());

  auto commit = store->ReadCommit("p1map", 0);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->attempt, 2);
  EXPECT_EQ(commit->blobs, std::vector<std::string>{blob});

  // Clearing the commit makes the task look never-run (re-execution),
  // while the blob bytes stay until orphan collection.
  ASSERT_TRUE(store->ClearCommit("p1map", 0).ok());
  EXPECT_EQ(store->ReadCommit("p1map", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(store->BlobExists(blob));
}

TEST_F(DistTest, CommitCarriesRecordCount) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string blob = ShuffleStore::BlobName("p2red", 4, 1, "data");
  ASSERT_TRUE(store->WriteBlob(blob, "cells").ok());
  ASSERT_TRUE(store->CommitTask("p2red", 4, 1, {blob}, 250047).ok());
  auto commit = store->ReadCommit("p2red", 4);
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(commit->records, 250047u);

  // A commit without a count records zero.
  ASSERT_TRUE(store->CommitTask("p2red", 5, 0, {}).ok());
  auto empty = store->ReadCommit("p2red", 5);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->records, 0u);
}

TEST_F(DistTest, CollectOrphansKeepsOnlyCommittedAttempt) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string a0 = ShuffleStore::BlobName("p2map", 1, 0, "shard0");
  const std::string a1 = ShuffleStore::BlobName("p2map", 1, 1, "shard0");
  ASSERT_TRUE(store->WriteBlob(a0, "stale attempt").ok());
  ASSERT_TRUE(store->WriteBlob(a1, "winning attempt").ok());
  ASSERT_TRUE(store->CommitTask("p2map", 1, 1, {a1}).ok());

  auto removed = store->CollectOrphans("p2map", 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_FALSE(store->BlobExists(a0));
  EXPECT_TRUE(store->BlobExists(a1));
}

// ------------------------------------------------------------- codecs

TEST_F(DistTest, CellCodecRoundtrip) {
  std::vector<core::dm2td_internal::TensorCell> cells;
  cells.push_back({1, {0, 3, 7}, 1.5});
  cells.push_back({2, {9, 0, 2}, -2.25e-8});
  auto decoded = tasks::DecodeCells(tasks::EncodeCells(cells));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].kappa, 1);
  EXPECT_EQ((*decoded)[0].idx, (std::vector<std::uint32_t>{0, 3, 7}));
  EXPECT_EQ((*decoded)[0].value, 1.5);
  EXPECT_EQ((*decoded)[1].kappa, 2);
  EXPECT_EQ((*decoded)[1].value, -2.25e-8);
}

TEST_F(DistTest, JoinCellAndFiberCodecRoundtrip) {
  std::vector<core::dm2td_internal::JoinCell> cells;
  cells.push_back({{1, 2, 3, 4, 5}, 0.125});
  auto join = tasks::DecodeJoinCells(tasks::EncodeJoinCells(cells));
  ASSERT_TRUE(join.ok());
  ASSERT_EQ(join->size(), 1u);
  EXPECT_EQ((*join)[0].idx, cells[0].idx);
  EXPECT_EQ((*join)[0].value, 0.125);

  std::vector<tasks::FiberPair> pairs = {{42u, 3u, -1.0},
                                         {7u, 0u, 0.5}};
  auto fibers = tasks::DecodeFiberPairs(tasks::EncodeFiberPairs(pairs));
  ASSERT_TRUE(fibers.ok());
  ASSERT_EQ(fibers->size(), 2u);
  EXPECT_EQ((*fibers)[0].key, 42u);
  EXPECT_EQ((*fibers)[0].i, 3u);
  EXPECT_EQ((*fibers)[0].v, -1.0);
}

TEST_F(DistTest, GramAndMatrixCodecRoundtrip) {
  linalg::Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = 1.0 + 3.0 * r + c;
  auto matrix = tasks::DecodeMatrix(tasks::EncodeMatrix(m));
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->rows(), 2u);
  ASSERT_EQ(matrix->cols(), 3u);
  EXPECT_EQ((*matrix)(1, 2), 6.0);

  std::vector<core::dm2td_internal::GramPiece> pieces;
  pieces.push_back({2, 1, m});
  auto grams = tasks::DecodeGramPieces(tasks::EncodeGramPieces(pieces));
  ASSERT_TRUE(grams.ok());
  ASSERT_EQ(grams->size(), 1u);
  EXPECT_EQ((*grams)[0].kappa, 2);
  EXPECT_EQ((*grams)[0].sub_mode, 1u);
  EXPECT_EQ((*grams)[0].gram(0, 1), 2.0);

  auto u64s =
      tasks::DecodeU64List(tasks::EncodeU64List({0, 1ull << 40, 7}));
  ASSERT_TRUE(u64s.ok());
  EXPECT_EQ(*u64s, (std::vector<std::uint64_t>{0, 1ull << 40, 7}));
}

TEST_F(DistTest, TruncatedRecordIsIOError) {
  std::vector<core::dm2td_internal::TensorCell> cells = {{1, {1, 2}, 3.0}};
  std::string bytes = tasks::EncodeCells(cells);
  bytes.resize(bytes.size() - 3);
  auto decoded = tasks::DecodeCells(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
}

// Length prefixes that claim more than the blob holds must come back as
// IOError — never a throw from an allocation, never a wrong-sized OK.
std::string U64Bytes(std::initializer_list<std::uint64_t> values) {
  std::string out;
  for (std::uint64_t v : values) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return out;
}

std::string U32Bytes(std::initializer_list<std::uint32_t> values) {
  std::string out;
  for (std::uint32_t v : values) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return out;
}

template <typename Decoded>
void ExpectIOError(const Result<Decoded>& decoded, const char* what) {
  ASSERT_FALSE(decoded.ok()) << what << " decoded OK";
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError)
      << what << ": " << decoded.status();
}

TEST_F(DistTest, HostileLengthPrefixesAreIOError) {
  // count * 8 overflows to 0 for a count of 2^61.
  const std::string u64_list = U64Bytes({1ull << 61, 7});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeU64List(u64_list), "u64 list"));

  // rows * cols * 8 overflows to 0 for a 2^33 x 2^31 header.
  const std::string matrix = U64Bytes({1ull << 33, 1ull << 31, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeMatrix(matrix), "matrix"));
  const std::string gram =
      U64Bytes({1}) + U32Bytes({1}) + U64Bytes({0, 1ull << 33, 1ull << 31});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeGramPieces(gram), "gram"));

  // An arity of 0xfffffff0 must not size an index vector.
  const std::string cells =
      U64Bytes({1}) + U32Bytes({1, 0xfffffff0u}) + U64Bytes({0, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeCells(cells), "cells"));
  const std::string join =
      U64Bytes({1}) + U32Bytes({0xfffffff0u}) + U64Bytes({0, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeJoinCells(join), "join cells"));

  // Record counts larger than the blob could hold.
  const std::string many = U64Bytes({~0ull, 0, 0, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeCells(many), "cell count"));
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodeJoinCells(many), "join cell count"));
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodeFiberPairs(many), "fiber pair count"));
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodeGramPieces(many), "gram piece count"));
}

// ContractFiber orders the fiber itself, so any arrival order gives the
// same cells, bit for bit, as the ascending-i_n order.
TEST_F(DistTest, ContractFiberIsOrderInvariant) {
  Rng rng(11);
  const std::size_t rows = 9, rank = 4;
  linalg::Matrix factor(rows, rank);
  for (double& v : factor.mutable_data()) v = rng.Gaussian();
  std::vector<std::pair<std::uint32_t, double>> sorted;
  for (std::uint32_t i = 0; i < rows; ++i) {
    // Magnitudes spread over many octaves make the sum order-sensitive.
    sorted.emplace_back(i, rng.Gaussian() * std::ldexp(1.0, 3 * (i % 7)));
  }
  // Mode 1 of a 3-mode tensor with extents {5, rows, 6}: key 17 names
  // the fiber at (2, :, 5).
  const std::vector<std::uint64_t> other_dims = {5, 6};
  const std::vector<std::size_t> other_modes = {0, 2};
  auto contract = [&](std::vector<std::pair<std::uint32_t, double>> fiber) {
    std::vector<core::dm2td_internal::JoinCell> out;
    core::dm2td_internal::ContractFiber(17, &fiber, factor, 1, other_dims,
                                        other_modes, 3, &out);
    return out;
  };
  const auto expected = contract(sorted);
  ASSERT_EQ(expected.size(), rank);
  for (std::size_t j = 0; j < rank; ++j) {
    EXPECT_EQ(expected[j].idx,
              (std::vector<std::uint32_t>{2, static_cast<std::uint32_t>(j),
                                          5}));
    double acc = 0.0;
    for (const auto& [i, v] : sorted) acc += factor(i, j) * v;
    EXPECT_EQ(expected[j].value, acc) << "rank " << j;
  }

  std::vector<std::pair<std::uint32_t, double>> permuted = sorted;
  std::reverse(permuted.begin(), permuted.end());
  for (int trial = 0; trial < 20; ++trial) {
    const auto got = contract(permuted);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].idx, expected[j].idx);
      EXPECT_EQ(got[j].value, expected[j].value) << "trial " << trial;
    }
    for (std::size_t k = permuted.size(); k > 1; --k) {
      std::swap(permuted[k - 1], permuted[rng.UniformInt(k)]);
    }
  }
}

TEST_F(DistTest, TaskFrameRoundtrip) {
  tasks::TaskRequest task;
  task.is_map = false;
  task.phase = "p3red_2";
  task.index = 5;
  task.attempt = 3;
  task.mode = 2;
  task.shape = {4, 4, 2, 2, 4};
  auto decoded = tasks::DecodeTaskFrame(tasks::EncodeTaskFrame(task));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->is_map);
  EXPECT_EQ(decoded->phase, "p3red_2");
  EXPECT_EQ(decoded->index, 5);
  EXPECT_EQ(decoded->attempt, 3);
  EXPECT_EQ(decoded->mode, 2);
  EXPECT_EQ(decoded->shape, task.shape);

  EXPECT_FALSE(tasks::DecodeTaskFrame("quit").ok());
  EXPECT_FALSE(tasks::DecodeTaskFrame("task 1 p1map").ok());
}

TEST_F(DistTest, JobConfigRoundtrip) {
  tasks::DistJobConfig config;
  config.full_shape = {4, 4, 4, 4, 4};
  config.shape1 = {4, 4, 4};
  config.shape2 = {4, 4, 4};
  config.pivot_modes = {0};
  config.side1_modes = {1, 2};
  config.side2_modes = {3, 4};
  config.shards = 8;
  config.zero_join = true;
  const std::string path = Path("job.m2td");
  ASSERT_TRUE(tasks::SaveJobConfig(path, config).ok());
  auto loaded = tasks::LoadJobConfig(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->full_shape, config.full_shape);
  EXPECT_EQ(loaded->shape1, config.shape1);
  EXPECT_EQ(loaded->shape2, config.shape2);
  EXPECT_EQ(loaded->pivot_modes, config.pivot_modes);
  EXPECT_EQ(loaded->side1_modes, config.side1_modes);
  EXPECT_EQ(loaded->side2_modes, config.side2_modes);
  EXPECT_EQ(loaded->shards, 8);
  EXPECT_TRUE(loaded->zero_join);

  EXPECT_EQ(tasks::MapPhaseOf("p1red"), "p1map");
  EXPECT_EQ(tasks::MapPhaseOf("p3red_4"), "p3map_4");
}

// --------------------------------------------- heartbeat lease semantics

TEST_F(DistTest, ResumeWithinLeaseKeepsRedialingWorkerAlive) {
  robust::HeartbeatMonitor hb;
  hb.Arm(3);
  // A worker that redials inside its lease resumes its identity — it is
  // NOT declared dead and its task is not double-reassigned.
  EXPECT_TRUE(hb.ResumeWithinLease(3, /*lease_ms=*/30000.0));
  EXPECT_TRUE(hb.IsArmed(3));
  // The resume reset the silence clock.
  EXPECT_LT(hb.SilentMillis(3), 1000.0);

  // Never armed: a stranger cannot claim an identity.
  EXPECT_FALSE(hb.ResumeWithinLease(7, 30000.0));
  // Declared dead (disarmed): no resurrection through the resume path.
  hb.Disarm(3);
  EXPECT_FALSE(hb.ResumeWithinLease(3, 30000.0));
  // Lease already lapsed: the expiry sweep owns the identity's fate.
  hb.Arm(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(hb.ResumeWithinLease(4, /*lease_ms=*/1.0));
  EXPECT_TRUE(hb.IsArmed(4));  // left for Expired() to collect
}

// ----------------------------------------- process-backend bit-identity

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
                        const core::DM2tdResult& b) {
  EXPECT_EQ(a.join_nnz, b.join_nnz);
  ASSERT_EQ(a.tucker.core.shape(), b.tucker.core.shape());
  EXPECT_EQ(a.tucker.core.data(), b.tucker.core.data());
  ASSERT_EQ(a.tucker.factors.size(), b.tucker.factors.size());
  for (std::size_t n = 0; n < a.tucker.factors.size(); ++n) {
    const linalg::Matrix& fa = a.tucker.factors[n];
    const linalg::Matrix& fb = b.tucker.factors[n];
    ASSERT_EQ(fa.rows(), fb.rows()) << "factor " << n;
    ASSERT_EQ(fa.cols(), fb.cols()) << "factor " << n;
    for (std::size_t r = 0; r < fa.rows(); ++r) {
      for (std::size_t c = 0; c < fa.cols(); ++c) {
        EXPECT_EQ(fa(r, c), fb(r, c))
            << "factor " << n << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST_F(DistTest, ProcessBackendMatchesThreadBitIdentical) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 3;
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  auto process_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(process_result.ok()) << process_result.status();

  ExpectBitIdentical(*process_result, *thread_result);
  EXPECT_EQ(process_result->dist.workers_spawned, 2);
  EXPECT_EQ(process_result->dist.worker_deaths, 0u);
  EXPECT_GT(process_result->dist.heartbeats, 0u);
}

// Worker processes dispatch the hot kernels exactly like the coordinator:
// on a vector host the counters merged back from the workers show the
// resolved ISA and no scalar calls, and the result still matches the
// thread backend bit for bit.
TEST_F(DistTest, ProcessWorkersDispatchResolvedIsa) {
  const util::SimdIsa resolved = util::ResolvedSimdIsa();
  if (resolved == util::SimdIsa::kScalar) {
    GTEST_SKIP() << "resolved SIMD ISA is scalar on this host";
  }
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& resolved_count = obs::GetCounter(
      std::string("linalg.simd.dispatch_") + util::SimdIsaName(resolved));
  obs::Counter& scalar_count = obs::GetCounter("linalg.simd.dispatch_scalar");
  resolved_count.Reset();
  scalar_count.Reset();
  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  auto process_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  obs::SetMetricsEnabled(metrics_were_enabled);
  ASSERT_TRUE(process_result.ok()) << process_result.status();

  ExpectBitIdentical(*process_result, *thread_result);
  EXPECT_GT(resolved_count.value(), 0u);
  EXPECT_EQ(scalar_count.value(), 0u);
}

// D-M2TD's factor solves run on the coordinator for both backends, so the
// process-wide eigensolver choice reaches the process backend even though
// m2td_worker never reads it: under QL the two backends still agree bit
// for bit, and the QL solver is what ran.
TEST_F(DistTest, ProcessBackendFollowsEigenMethod) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  const linalg::EigenMethod previous_method = linalg::DefaultEigenMethod();
  const bool metrics_were_enabled = obs::MetricsEnabled();
  linalg::SetDefaultEigenMethod(linalg::EigenMethod::kTridiagonalQL);
  obs::SetMetricsEnabled(true);
  obs::Counter& ql_solves = obs::GetCounter("linalg.eigen.ql_solves");

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  ql_solves.Reset();
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  const std::uint64_t thread_ql_solves = ql_solves.value();

  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  ql_solves.Reset();
  auto process_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  const std::uint64_t process_ql_solves = ql_solves.value();
  obs::SetMetricsEnabled(metrics_were_enabled);
  linalg::SetDefaultEigenMethod(previous_method);

  ASSERT_TRUE(thread_result.ok()) << thread_result.status();
  ASSERT_TRUE(process_result.ok()) << process_result.status();
  ExpectBitIdentical(*process_result, *thread_result);
  EXPECT_GT(thread_ql_solves, 0u);
  EXPECT_EQ(process_ql_solves, thread_ql_solves);
}

TEST_F(DistTest, SocketTransportMatchesThreadBitIdentical) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 3;
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.transport = "socket";
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  auto socket_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(socket_result.ok()) << socket_result.status();

  ExpectBitIdentical(*socket_result, *thread_result);
  EXPECT_EQ(socket_result->dist.workers_spawned, 2);
  EXPECT_EQ(socket_result->dist.worker_deaths, 0u);
  EXPECT_EQ(socket_result->dist.net_connects, 2u);
  EXPECT_EQ(socket_result->dist.net_disconnects, 0u);
  EXPECT_GT(socket_result->dist.heartbeats, 0u);
}

TEST_F(DistTest, ShardCountNeverAffectsResults) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 2;

  options.num_shards = 8;
  options.process.job_dir = Path("job8");
  auto shards8 = core::DM2tdDecompose(*subs, *partition,
                                      model->space().Shape(), options);
  ASSERT_TRUE(shards8.ok()) << shards8.status();

  options.num_shards = 3;
  options.process.job_dir = Path("job3");
  auto shards3 = core::DM2tdDecompose(*subs, *partition,
                                      model->space().Shape(), options);
  ASSERT_TRUE(shards3.ok()) << shards3.status();
  ExpectBitIdentical(*shards3, *shards8);
}

void ExpectSameRecordCounts(const core::DM2tdResult& a,
                            const core::DM2tdResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.join_nnz, b.join_nnz) << label;
  const mapreduce::JobStats* pa[] = {&a.phase1, &a.phase2, &a.phase3};
  const mapreduce::JobStats* pb[] = {&b.phase1, &b.phase2, &b.phase3};
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(pa[p]->intermediate_pairs, pb[p]->intermediate_pairs)
        << label << " phase " << p + 1 << " pairs";
    EXPECT_EQ(pa[p]->output_records, pb[p]->output_records)
        << label << " phase " << p + 1 << " records";
  }
}

// Neither the worker count nor the shard count — which changes what every
// reducer emits and in what order — may move a single bit, on either
// backend, and both backends count the same pairs and records.
TEST_F(DistTest, WorkerAndShardSweepIsBitIdentical) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.num_workers = 1;
  auto baseline = core::DM2tdDecompose(*subs, *partition,
                                       model->space().Shape(), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_GT(baseline->join_nnz, 0u);

  for (int workers : {1, 3}) {
    options.backend = core::DistBackend::kThread;
    options.num_workers = workers;
    auto thread_result = core::DM2tdDecompose(
        *subs, *partition, model->space().Shape(), options);
    ASSERT_TRUE(thread_result.ok()) << thread_result.status();
    const std::string thread_label = "thread workers=" +
                                     std::to_string(workers);
    SCOPED_TRACE(thread_label);
    ExpectBitIdentical(*thread_result, *baseline);
    ExpectSameRecordCounts(*thread_result, *baseline, thread_label);

    for (int shards : {1, 5, 8}) {
      const std::string label = "process workers=" + std::to_string(workers) +
                                " shards=" + std::to_string(shards);
      SCOPED_TRACE(label);
      options.backend = core::DistBackend::kProcess;
      options.process.worker_binary = M2TD_WORKER_BIN;
      options.num_shards = shards;
      options.process.job_dir =
          Path("job_w" + std::to_string(workers) + "_s" +
               std::to_string(shards));
      auto process_result = core::DM2tdDecompose(
          *subs, *partition, model->space().Shape(), options);
      ASSERT_TRUE(process_result.ok()) << process_result.status();
      ExpectBitIdentical(*process_result, *baseline);
      ExpectSameRecordCounts(*process_result, *baseline, label);
      // Phase-3 splits are the upstream reducers' outputs; the
      // coordinator writes no per-mode input blobs.
      for (const auto& entry : std::filesystem::directory_iterator(
               options.process.job_dir + "/input")) {
        EXPECT_NE(entry.path().filename().string().rfind("p3_", 0), 0u)
            << entry.path();
      }
    }
  }
}

TEST_F(DistTest, ZeroJoinProcessMatchesThread) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  core::SubEnsembleOptions sub_options;
  sub_options.cell_density = 0.4;
  auto subs = core::BuildSubEnsembles(model.get(), *partition, sub_options);
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.stitch.zero_join = true;
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  auto process_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  ASSERT_TRUE(process_result.ok()) << process_result.status();
  ExpectBitIdentical(*process_result, *thread_result);
}

TEST_F(DistTest, MalformedFrameExitsWorkerWithDistinctCode) {
  // A worker that receives an undecodable frame must log the offending
  // header and exit with kWorkerExitMalformedFrame — the code the
  // coordinator folds into DistStats::worker_exit_details and the run
  // report's exit detail.
  ASSERT_TRUE(io::ShuffleStore::Create(Path("")).ok());
  tasks::DistJobConfig config;
  config.full_shape = {4, 4, 4, 4, 4};
  config.shape1 = {4, 4, 4};
  config.shape2 = {4, 4, 4};
  config.pivot_modes = {0};
  config.side1_modes = {1, 2};
  config.side2_modes = {3, 4};
  config.shards = 2;
  ASSERT_TRUE(tasks::SaveJobConfig(Path("job.m2td"), config).ok());

  int to_pipe[2], from_pipe[2];
  ASSERT_EQ(::pipe(to_pipe), 0);
  ASSERT_EQ(::pipe(from_pipe), 0);
  const std::string job_dir_flag = "--job_dir=" + root_.string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_pipe[0], 0);
    ::dup2(from_pipe[1], 1);
    ::close(to_pipe[1]);
    ::close(from_pipe[0]);
    ::execl(M2TD_WORKER_BIN, M2TD_WORKER_BIN, job_dir_flag.c_str(),
            "--worker_id=0", nullptr);
    _exit(127);
  }
  ::close(to_pipe[0]);
  ::close(from_pipe[1]);

  auto hello = mapreduce::wire::ReadFrame(from_pipe[0]);
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(*hello, "hello 0");
  ASSERT_TRUE(
      mapreduce::wire::WriteFrame(to_pipe[1], "gibberish \x01\x02").ok());

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(to_pipe[1]);
  ::close(from_pipe[0]);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), tasks::kWorkerExitMalformedFrame);
  EXPECT_STREQ(tasks::WorkerExitCodeName(tasks::kWorkerExitMalformedFrame),
               "malformed frame");
}

TEST_F(DistTest, MissingWorkerBinaryIsNotFound) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = Path("does_not_exist");
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     model->space().Shape(), options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace m2td
