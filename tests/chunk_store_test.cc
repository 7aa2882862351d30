#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "io/chunk_store.h"
#include "util/random.h"

namespace m2td::io {
namespace {

class ChunkStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_chunk_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string StoreDir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

tensor::SparseTensor MakeTensor(const std::vector<std::uint64_t>& shape,
                                std::uint64_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  tensor::SparseTensor x(shape);
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

TEST_F(ChunkStoreTest, CreateValidation) {
  EXPECT_FALSE(ChunkStore::Create(StoreDir(), {}, {}).ok());
  EXPECT_FALSE(ChunkStore::Create(StoreDir(), {4, 4}, {2}).ok());
  EXPECT_FALSE(ChunkStore::Create(StoreDir(), {4, 0}, {2, 2}).ok());
  auto store = ChunkStore::Create(StoreDir(), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  // A never-written store reads back as an empty tensor of its shape.
  auto empty = store->ReadAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumNonZeros(), 0u);
  EXPECT_EQ(empty->shape(), (std::vector<std::uint64_t>{4, 4}));
  // Creating again over the same directory fails.
  EXPECT_EQ(ChunkStore::Create(StoreDir(), {4, 4}, {2, 2}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ChunkStoreTest, ChunkShapeClampsToTensorShape) {
  auto store = ChunkStore::Create(StoreDir(), {3, 3}, {10, 10});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->chunk_shape(), (std::vector<std::uint64_t>{3, 3}));
  // One chunk then covers the whole tensor.
  ASSERT_TRUE(store->Write(MakeTensor({3, 3}, 6, 5)).ok());
  EXPECT_EQ(store->NumChunks(), 1u);
}

TEST_F(ChunkStoreTest, WriteReadAllRoundTrip) {
  tensor::SparseTensor x = MakeTensor({8, 6, 10}, 60, 3);
  auto store = ChunkStore::Create(StoreDir(), x.shape(), {3, 3, 3});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(x).ok());
  EXPECT_EQ(store->TotalNonZeros(), x.NumNonZeros());
  // One blob per occupied chunk-grid cell, none for empty cells.
  std::set<std::vector<std::uint32_t>> occupied;
  for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
    occupied.insert({x.Index(0, e) / 3, x.Index(1, e) / 3, x.Index(2, e) / 3});
  }
  EXPECT_EQ(store->NumChunks(), occupied.size());
  EXPECT_GT(store->NumChunks(), 1u);

  auto loaded = store->ReadAll();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumNonZeros(), x.NumNonZeros());
  for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < x.num_modes(); ++m) {
      EXPECT_EQ(loaded->Index(m, e), x.Index(m, e));
    }
    EXPECT_DOUBLE_EQ(loaded->Value(e), x.Value(e));
  }
}

TEST_F(ChunkStoreTest, OpenReloadsManifest) {
  tensor::SparseTensor x = MakeTensor({6, 6}, 20, 5);
  {
    auto store = ChunkStore::Create(StoreDir(), x.shape(), {2, 2});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Write(x).ok());
  }
  auto reopened = ChunkStore::Open(StoreDir());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->shape(), x.shape());
  EXPECT_EQ(reopened->chunk_shape(), (std::vector<std::uint64_t>{2, 2}));
  EXPECT_EQ(reopened->TotalNonZeros(), x.NumNonZeros());
  auto loaded = reopened->ReadAll();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNonZeros(), x.NumNonZeros());
}

TEST_F(ChunkStoreTest, OpenMissingStoreFails) {
  EXPECT_EQ(ChunkStore::Open(StoreDir() + "_nope").status().code(),
            StatusCode::kIOError);
}

TEST_F(ChunkStoreTest, RewriteReplacesContent) {
  auto store = ChunkStore::Create(StoreDir(), {6, 6}, {3, 3});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Write(MakeTensor({6, 6}, 30, 1)).ok());
  const std::uint64_t first_nnz = store->TotalNonZeros();
  tensor::SparseTensor second = MakeTensor({6, 6}, 5, 2);
  ASSERT_TRUE(store->Write(second).ok());
  EXPECT_NE(store->TotalNonZeros(), first_nnz);
  auto loaded = store->ReadAll();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNonZeros(), second.NumNonZeros());
}

TEST_F(ChunkStoreTest, WrongShapeWriteRejected) {
  auto store = ChunkStore::Create(StoreDir(), {4, 4}, {2, 2});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Write(MakeTensor({5, 4}, 3, 1)).ok());
}

TEST_F(ChunkStoreTest, CorruptManifestRejected) {
  {
    auto store = ChunkStore::Create(StoreDir(), {4, 4}, {2, 2});
    ASSERT_TRUE(store.ok());
  }
  std::ofstream out(std::filesystem::path(StoreDir()) / "manifest.m2td");
  out << "garbage\n";
  out.close();
  EXPECT_FALSE(ChunkStore::Open(StoreDir()).ok());
}

}  // namespace
}  // namespace m2td::io
