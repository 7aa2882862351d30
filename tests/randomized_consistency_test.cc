// Randomized consistency ("fuzz-lite") tests: long random operation
// sequences against simple reference models. Seeds are fixed so failures
// reproduce; each case runs many iterations.

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "io/shuffle_store.h"
#include "io/tensor_io.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace m2td {
namespace {

// Reference model: a plain map from multi-index to accumulated value.
using Oracle = std::map<std::vector<std::uint32_t>, double>;

TEST(RandomizedConsistencyTest, SparseTensorVsMapOracle) {
  Rng rng(2024);
  for (int episode = 0; episode < 10; ++episode) {
    const std::vector<std::uint64_t> shape = {
        2 + rng.UniformInt(6), 2 + rng.UniformInt(6), 2 + rng.UniformInt(6)};
    tensor::SparseTensor x(shape);
    Oracle oracle;
    const int ops = 200;
    for (int op = 0; op < ops; ++op) {
      std::vector<std::uint32_t> idx(3);
      for (std::size_t m = 0; m < 3; ++m) {
        idx[m] = static_cast<std::uint32_t>(rng.UniformInt(shape[m]));
      }
      const double v = rng.Gaussian();
      x.AppendEntry(idx, v);
      oracle[idx] += v;
    }
    x.SortAndCoalesce();
    ASSERT_EQ(x.NumNonZeros(), oracle.size());
    for (const auto& [idx, value] : oracle) {
      auto found = x.Find(idx);
      ASSERT_TRUE(found.has_value());
      EXPECT_NEAR(*found, value, 1e-12);
    }
    // Dense round trip preserves everything.
    tensor::SparseTensor back =
        tensor::SparseTensor::FromDense(x.ToDense(), 0.0);
    EXPECT_LE(back.NumNonZeros(), x.NumNonZeros());  // exact zeros dropped
  }
}

TEST(RandomizedConsistencyTest, ShuffleStoreRoundTripsRandomSegments) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("m2td_fuzz_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = io::ShuffleStore::Create(dir.string());
  ASSERT_TRUE(store.ok()) << store.status();

  Rng rng(31337);
  for (int episode = 0; episode < 8; ++episode) {
    // Random segment counts and lengths, empty segments and files included.
    std::vector<std::string> segments(rng.UniformInt(10));
    for (std::string& segment : segments) {
      segment.resize(rng.UniformInt(3) == 0 ? 0 : rng.UniformInt(300));
      for (char& c : segment) c = static_cast<char>(rng.UniformInt(256));
    }
    const auto source = [&](std::size_t i) { return segments[i]; };
    const std::uint64_t records = rng.UniformInt(1000);
    ASSERT_TRUE(store->WriteAttempt("p", episode, 0, segments.size(), source,
                                    records)
                    .ok());
    ASSERT_TRUE(store->CommitAttempt("p", episode, 0).ok());
    const std::string name = io::ShuffleStore::TaskFileName("p", episode);

    // Every segment comes back exactly, and the file is exactly its header
    // plus its segments.
    auto header = store->ReadHeader(name, "p");
    ASSERT_TRUE(header.ok()) << header.status();
    EXPECT_EQ(header->records, records) << "episode " << episode;
    ASSERT_EQ(header->segments.size(), segments.size());
    std::uint64_t bytes = io::ShuffleStore::HeaderBytes(segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) {
      auto read = store->ReadSegment(name, i, "p");
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_EQ(*read, segments[i]) << "episode " << episode << " segment "
                                    << i;
      bytes += segments[i].size();
    }
    EXPECT_EQ(std::filesystem::file_size(dir / name), bytes);
    EXPECT_FALSE(store->ReadSegment(name, segments.size(), "p").ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(RandomizedConsistencyTest, TensorIoRoundTripsRandomTensors) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("m2td_fuzz_io_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  Rng rng(555);
  for (int episode = 0; episode < 8; ++episode) {
    const std::size_t modes = 2 + rng.UniformInt(3);
    std::vector<std::uint64_t> shape(modes);
    for (auto& d : shape) d = 2 + rng.UniformInt(6);
    tensor::SparseTensor x(shape);
    std::vector<std::uint32_t> idx(modes);
    const std::uint64_t nnz = rng.UniformInt(40);
    for (std::uint64_t e = 0; e < nnz; ++e) {
      for (std::size_t m = 0; m < modes; ++m) {
        idx[m] = static_cast<std::uint32_t>(rng.UniformInt(shape[m]));
      }
      x.AppendEntry(idx, rng.Gaussian() * std::pow(10.0, rng.UniformInt(6)));
    }
    x.SortAndCoalesce();

    const std::string text_path = (dir / "t.txt").string();
    const std::string bin_path = (dir / "t.bin").string();
    ASSERT_TRUE(io::SaveSparseText(x, text_path).ok());
    ASSERT_TRUE(io::SaveSparseBinary(x, bin_path).ok());
    auto from_text = io::LoadSparseText(text_path);
    auto from_bin = io::LoadSparseBinary(bin_path);
    ASSERT_TRUE(from_text.ok() && from_bin.ok());
    ASSERT_EQ(from_text->NumNonZeros(), x.NumNonZeros());
    ASSERT_EQ(from_bin->NumNonZeros(), x.NumNonZeros());
    for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
      EXPECT_DOUBLE_EQ(from_text->Value(e), x.Value(e));
      EXPECT_DOUBLE_EQ(from_bin->Value(e), x.Value(e));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace m2td
