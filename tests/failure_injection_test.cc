// Failure-injection tests: the library must degrade with clear Status
// errors (never crashes or silent corruption) when the environment
// misbehaves — missing/corrupt/truncated files, deleted chunk blobs,
// reducers that produce nothing, degenerate numeric inputs.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/chunk_store.h"
#include "io/out_of_core.h"
#include "io/tensor_io.h"
#include "linalg/eigen.h"
#include "linalg/svd.h"
#include "mapreduce/engine.h"
#include "robust/retry.h"
#include "tensor/matricize.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_fail_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

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

TEST_F(FailureInjectionTest, DeletedChunkBlobSurfacesIOError) {
  auto store = io::ChunkStore::Create(Path("store"), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(SmallTensor()).ok());
  // Remove one chunk blob behind the store's back.
  bool removed = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(Path("store"))) {
    if (entry.path().filename().string().rfind("chunk_", 0) == 0) {
      std::filesystem::remove(entry.path());
      removed = true;
      break;
    }
  }
  ASSERT_TRUE(removed);
  auto all = store->ReadAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kIOError);
  // Out-of-core HOSVD propagates the same failure instead of producing a
  // silently wrong decomposition.
  EXPECT_FALSE(io::HosvdFromStore(*store, {2, 2}).ok());
}

TEST_F(FailureInjectionTest, TruncatedBinaryBlobRejected) {
  const std::string path = Path("t.bin");
  ASSERT_TRUE(io::SaveSparseBinary(SmallTensor(), path).ok());
  // Truncate the value array.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  auto loaded = io::LoadSparseBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(FailureInjectionTest, BinaryBlobWithGiantNnzRejected) {
  // A nnz count far beyond the actual payload must not drive a huge
  // allocation into a crash; the loader fails on the truncated read.
  const std::string path = Path("evil.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = 0x4d32544453503031ULL;
    const std::uint64_t modes = 2, d = 4, nnz = 1ULL << 20;
    for (std::uint64_t v : {magic, modes, d, d, nnz}) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
  auto loaded = io::LoadSparseBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(FailureInjectionTest, SaveToUnwritableLocationFails) {
  EXPECT_EQ(io::SaveSparseText(SmallTensor(), Path("no/such/dir/t.txt"))
                .code(),
            StatusCode::kIOError);
  EXPECT_EQ(io::SaveSparseBinary(SmallTensor(), Path("no/such/dir/t.bin"))
                .code(),
            StatusCode::kIOError);
}

TEST_F(FailureInjectionTest, ManifestWithOutOfRangeChunkIdTolerated) {
  auto store = io::ChunkStore::Create(Path("store"), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(SmallTensor()).ok());
  // Reopen and read a never-written chunk: must be empty, not an error.
  auto reopened = io::ChunkStore::Open(Path("store"));
  ASSERT_TRUE(reopened.ok());
  auto empty = reopened->ReadChunk({1, 1});
  ASSERT_TRUE(empty.ok());
}

// A committed shuffle chunk that rots on disk mid-run must surface as
// DataLoss naming the producing map task, and the coordinator must
// re-execute that producer — not spin retrying the poisoned blob — and
// still finish bit-identical to the thread backend.
TEST_F(FailureInjectionTest, CorruptedShuffleChunkTriggersMapReexecution) {
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 4;
  model_options.time_resolution = 4;
  model_options.dt = 0.01;
  model_options.record_every = 5;
  auto model = ensemble::MakeDoublePendulumModel(model_options);
  ASSERT_TRUE(model.ok());
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model->get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, (*model)->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = Path("job");
  bool corrupted = false;
  options.process.event_hook = [&](const core::DistEvent& event) {
    // After every p2map task committed, rot one byte of one committed
    // shard blob: the reducer reading it must hit a CRC mismatch.
    if (corrupted || event.kind != "stage_done" || event.phase != "p2map") {
      return;
    }
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             Path("job") + "/p2map")) {
      if (!entry.is_regular_file()) continue;
      const std::string leaf = entry.path().filename().string();
      if (leaf.rfind("shard", 0) != 0) continue;
      std::fstream file(entry.path(),
                        std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(file.is_open());
      file.seekg(6);
      const char byte = static_cast<char>(file.get());
      file.seekp(6);
      file.put(static_cast<char>(byte ^ 0xff));
      corrupted = true;
      return;
    }
  };
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     (*model)->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(corrupted);
  EXPECT_GE(result->dist.map_reexecutions, 1u);
  EXPECT_EQ(result->dist.worker_deaths, 0u);

  // Recovery must be invisible in the output.
  EXPECT_EQ(result->join_nnz, thread_result->join_nnz);
  EXPECT_EQ(result->tucker.core.data(), thread_result->tucker.core.data());
}

// The phase-3 mappers of mode 0 read the committed p2red outputs
// directly. A rotted p2red data blob must be traced back to its reduce
// task, which is re-executed while the mapper waits.
TEST_F(FailureInjectionTest, CorruptedReduceOutputTriggersProducerReexecution) {
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 4;
  model_options.time_resolution = 4;
  model_options.dt = 0.01;
  model_options.record_every = 5;
  auto model = ensemble::MakeDoublePendulumModel(model_options);
  ASSERT_TRUE(model.ok());
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model->get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  auto thread_result = core::DM2tdDecompose(
      *subs, *partition, (*model)->space().Shape(), options);
  ASSERT_TRUE(thread_result.ok()) << thread_result.status();

  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.process.job_dir = Path("job");
  bool corrupted = false;
  std::vector<std::string> reexecuted;
  options.process.event_hook = [&](const core::DistEvent& event) {
    if (event.kind == "map_reexec") {
      reexecuted.push_back(event.phase + ":" + std::to_string(event.task));
    }
    // After every p2red task committed, rot one byte of one committed
    // data blob: the p3map_0 task reading it must hit a CRC mismatch.
    if (corrupted || event.kind != "stage_done" || event.phase != "p2red") {
      return;
    }
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             Path("job") + "/p2red")) {
      if (!entry.is_regular_file() || entry.path().filename() != "data") {
        continue;
      }
      std::fstream file(entry.path(),
                        std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(file.is_open());
      file.seekg(6);
      const char byte = static_cast<char>(file.get());
      file.seekp(6);
      file.put(static_cast<char>(byte ^ 0xff));
      corrupted = true;
      return;
    }
  };
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     (*model)->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(corrupted);
  EXPECT_EQ(result->dist.map_reexecutions, 1u);
  EXPECT_EQ(result->dist.worker_deaths, 0u);
  ASSERT_EQ(reexecuted.size(), 1u);
  EXPECT_EQ(reexecuted[0].rfind("p2red:", 0), 0u) << reexecuted[0];

  // Recovery must be invisible in the output.
  EXPECT_EQ(result->join_nnz, thread_result->join_nnz);
  EXPECT_EQ(result->tucker.core.data(), thread_result->tucker.core.data());
  ASSERT_EQ(result->tucker.factors.size(), thread_result->tucker.factors.size());
  for (std::size_t n = 0; n < result->tucker.factors.size(); ++n) {
    EXPECT_EQ(result->tucker.factors[n].data(),
              thread_result->tucker.factors[n].data())
        << "factor " << n;
  }
}

TEST(MapReduceFailureTest, ReducerEmittingNothingIsFine) {
  std::vector<int> inputs = {1, 2, 3};
  mapreduce::JobSpec<int, int, int, int> spec;
  spec.num_workers = 2;
  spec.mapper = [](const int& v, mapreduce::Emitter<int, int>* e) {
    e->Emit(v, v);
  };
  spec.reducer = [](const int&, std::vector<int>&, std::vector<int>*) {
    // Drops everything.
  };
  auto result = mapreduce::RunJob(spec, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(MapReduceFailureTest, MapperEmittingNothingIsFine) {
  std::vector<int> inputs = {1, 2, 3};
  mapreduce::JobSpec<int, int, int, int> spec;
  spec.num_workers = 3;
  spec.mapper = [](const int&, mapreduce::Emitter<int, int>*) {};
  spec.reducer = [](const int&, std::vector<int>& values,
                    std::vector<int>* out) {
    out->push_back(static_cast<int>(values.size()));
  };
  mapreduce::JobStats stats;
  auto result = mapreduce::RunJob(spec, inputs, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(stats.intermediate_pairs, 0u);
}

TEST(MapReduceFailureTest, ThrowingMapperSurfacesInternal) {
  std::vector<int> inputs = {1, 2, 3};
  mapreduce::JobSpec<int, int, int, int> spec;
  spec.num_workers = 2;
  spec.mapper = [](const int& v, mapreduce::Emitter<int, int>*) {
    if (v == 2) throw std::runtime_error("mapper exploded");
  };
  spec.reducer = [](const int&, std::vector<int>&, std::vector<int>*) {};
  auto result = mapreduce::RunJob(spec, inputs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("mapper exploded"),
            std::string::npos);
}

TEST(MapReduceFailureTest, ThrowingReducerSurfacesInternal) {
  std::vector<int> inputs = {1, 2, 3};
  mapreduce::JobSpec<int, int, int, int> spec;
  spec.num_workers = 2;
  spec.mapper = [](const int& v, mapreduce::Emitter<int, int>* e) {
    e->Emit(v, v);
  };
  spec.reducer = [](const int&, std::vector<int>&, std::vector<int>*) {
    throw std::runtime_error("reducer exploded");
  };
  auto result = mapreduce::RunJob(spec, inputs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(MapReduceFailureTest, ThrowingMapperHealedByTaskRetry) {
  std::vector<int> inputs = {1, 2, 3, 4};
  std::atomic<int> boom{1};  // first map attempt that sees item 1 throws
  mapreduce::JobSpec<int, int, int, int> spec;
  spec.num_workers = 1;
  spec.retry.max_retries = 2;
  spec.mapper = [&boom](const int& v, mapreduce::Emitter<int, int>* e) {
    if (v == 1 && boom.fetch_sub(1) > 0) {
      throw std::runtime_error("transient mapper crash");
    }
    e->Emit(0, v);
  };
  spec.reducer = [](const int&, std::vector<int>& values,
                    std::vector<int>* out) {
    int sum = 0;
    for (int v : values) sum += v;
    out->push_back(sum);
  };
  robust::SetRetrySleeperForTest([](double) {});
  auto result = mapreduce::RunJob(spec, inputs);
  robust::SetRetrySleeperForTest(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  // The retried task replays all its items; the emitter buffer reset keeps
  // the replay from double-counting.
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], 10);
}

/// Key type whose std::hash throws on demand. The custom partitioner
/// below keeps the map-side Emit path hash-free, so the first hash call
/// happens during reduce-phase grouping — which used to run OUTSIDE the
/// task's try block: the exception escaped the worker thread and
/// terminated the process before the phase barrier. Routed through the
/// pool, it must surface as a clean Internal status instead.
struct BoomKey {
  int id = 0;
  bool operator==(const BoomKey& other) const { return id == other.id; }
};

std::atomic<bool> g_boom_key_armed{false};

}  // namespace
}  // namespace m2td

template <>
struct std::hash<m2td::BoomKey> {
  std::size_t operator()(const m2td::BoomKey& k) const {
    if (m2td::g_boom_key_armed.load()) {
      throw std::runtime_error("hash exploded during grouping");
    }
    return static_cast<std::size_t>(k.id);
  }
};

namespace m2td {
namespace {

TEST(MapReduceFailureTest, ThrowingKeyHashInReduceGroupingSurfacesInternal) {
  std::vector<int> inputs = {1, 2, 3, 4};
  mapreduce::JobSpec<int, BoomKey, int, int> spec;
  spec.num_workers = 2;
  // Hash-free placement: the map phase never touches std::hash<BoomKey>.
  spec.partitioner = [](const BoomKey& k) {
    return static_cast<std::size_t>(k.id);
  };
  spec.mapper = [](const int& v, mapreduce::Emitter<BoomKey, int>* e) {
    e->Emit(BoomKey{v % 2}, v);
  };
  spec.reducer = [](const BoomKey&, std::vector<int>& values,
                    std::vector<int>* out) {
    int sum = 0;
    for (int v : values) sum += v;
    out->push_back(sum);
  };

  g_boom_key_armed.store(true);
  auto result = mapreduce::RunJob(spec, inputs);
  g_boom_key_armed.store(false);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("hash exploded"),
            std::string::npos);

  // Disarmed, the identical job runs to completion — the engine is not
  // left wedged by the failed run.
  auto healthy = mapreduce::RunJob(spec, inputs);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_EQ(healthy->size(), 2u);
  EXPECT_EQ((*healthy)[0] + (*healthy)[1], 10);
}

TEST(NumericEdgeTest, GramOfAllZeroValuesIsZeroAndDecomposable) {
  tensor::SparseTensor x({3, 3});
  x.AppendEntry({0, 0}, 0.0);
  x.AppendEntry({1, 2}, 0.0);
  x.SortAndCoalesce();
  auto gram = tensor::ModeGram(x, 0);
  ASSERT_TRUE(gram.ok());
  EXPECT_EQ(gram->FrobeniusNorm(), 0.0);
  auto tucker = tensor::HosvdSparse(x, {2, 2});
  ASSERT_TRUE(tucker.ok());
  EXPECT_EQ(tucker->core.FrobeniusNorm(), 0.0);
}

TEST(NumericEdgeTest, HugeMagnitudeValuesSurvive) {
  tensor::SparseTensor x({3, 3});
  x.AppendEntry({0, 0}, 1e150);
  x.AppendEntry({2, 2}, -1e150);
  x.SortAndCoalesce();
  auto gram = tensor::ModeGram(x, 0);
  ASSERT_TRUE(gram.ok());
  EXPECT_TRUE(std::isfinite((*gram)(0, 0)));
  auto eig = linalg::SymmetricEigen(*gram);
  ASSERT_TRUE(eig.ok());
  for (double w : eig->eigenvalues) EXPECT_TRUE(std::isfinite(w));
}

TEST(NumericEdgeTest, TinyValuesDoNotUnderflowTheWholePipeline) {
  tensor::SparseTensor x({3, 3});
  x.AppendEntry({0, 1}, 1e-200);
  x.AppendEntry({1, 0}, 2e-200);
  x.SortAndCoalesce();
  auto tucker = tensor::HosvdSparse(x, {2, 2});
  ASSERT_TRUE(tucker.ok());
  auto reconstructed = tensor::Reconstruct(*tucker);
  ASSERT_TRUE(reconstructed.ok());
  for (std::uint64_t i = 0; i < reconstructed->NumElements(); ++i) {
    ASSERT_TRUE(std::isfinite(reconstructed->flat(i)));
  }
}

}  // namespace
}  // namespace m2td
