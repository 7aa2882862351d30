// Failure-injection tests: the library must degrade with clear Status
// errors (never crashes or silent corruption) when the environment
// misbehaves — missing/corrupt/truncated files, shuffle files that rot
// mid-run, degenerate numeric inputs.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/shuffle_store.h"
#include "io/tensor_io.h"
#include "linalg/eigen.h"
#include "linalg/svd.h"
#include "robust/retry.h"
#include "shuffle_layout.h"
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

// A committed shuffle chunk that rots on disk mid-run must surface as
// DataLoss naming the producing map task, and the coordinator must
// re-execute that producer — not spin retrying the poisoned bytes — and
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
    // After every p2map task committed, rot one byte of one shard
    // segment of a committed map file: the reducer reading that segment
    // must hit a CRC mismatch.
    if (corrupted || event.kind != "stage_done" || event.phase != "p2map") {
      return;
    }
    const auto target = FirstSegmentPayloadByte(Path("job"), "p2map");
    ASSERT_TRUE(target.has_value());
    ASSERT_TRUE(FlipByte(*target));
    corrupted = true;
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

// The coordinator gathers the committed p2red outputs (the per-pivot
// partial cores). A rotted p2red output must be traced back to its reduce
// task, which is re-executed before the gather reads it again.
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
    // reduce output: the coordinator's gather must hit a CRC mismatch.
    if (corrupted || event.kind != "stage_done" || event.phase != "p2red") {
      return;
    }
    const auto target = FirstSegmentPayloadByte(Path("job"), "p2red");
    ASSERT_TRUE(target.has_value());
    ASSERT_TRUE(FlipByte(*target));
    corrupted = true;
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

// The coordinator's own read of the phase-1 Gram outputs gets the same
// culprit recovery as a worker's read: a rotted p1red output re-executes
// that reduce task instead of failing the run.
TEST_F(FailureInjectionTest, CorruptedGramOutputTriggersProducerReexecution) {
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
    // After every p1red task committed, rot one byte of one committed
    // Gram output: the coordinator's gather must hit a CRC mismatch.
    if (corrupted || event.kind != "stage_done" || event.phase != "p1red") {
      return;
    }
    const auto target = FirstSegmentPayloadByte(Path("job"), "p1red");
    ASSERT_TRUE(target.has_value());
    ASSERT_TRUE(FlipByte(*target));
    corrupted = true;
  };
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     (*model)->space().Shape(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(corrupted);
  EXPECT_EQ(result->dist.map_reexecutions, 1u);
  EXPECT_EQ(result->dist.worker_deaths, 0u);
  ASSERT_EQ(reexecuted.size(), 1u);
  EXPECT_EQ(reexecuted[0].rfind("p1red:", 0), 0u) << reexecuted[0];

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
