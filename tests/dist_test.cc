// Multi-process D-M2TD backend tests (ctest -L distributed): durable
// shuffle-store semantics (CRC-checked segmented task files, commit by
// rename, orphan GC, hostile headers), the binary record codecs and task wire frames shared by the
// coordinator and m2td_worker, and end-to-end bit-identity of the
// process backend against the in-process thread backend.
//
// The worker binary location is baked in at compile time via the
// M2TD_WORKER_BIN definition (see tests/CMakeLists.txt), so the test
// works from any CWD ctest chooses.

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dm2td.h"
#include "core/dm2td_internal.h"
#include "core/dm2td_tasks.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "io/shuffle_store.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "mapreduce/transport.h"
#include "obs/metrics.h"
#include "robust/crc32.h"
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

ShuffleStore::SegmentSource Segments(const std::vector<std::string>& parts) {
  return [&parts](std::size_t i) { return parts[i]; };
}

/// Writes and commits attempt `attempt` of (`phase`, `task`).
void Commit(const ShuffleStore& store, const std::string& phase, int task,
            int attempt, const std::vector<std::string>& parts,
            std::uint64_t records = 0) {
  ASSERT_TRUE(store.WriteAttempt(phase, task, attempt, parts.size(),
                                 Segments(parts), records)
                  .ok());
  ASSERT_TRUE(store.CommitAttempt(phase, task, attempt).ok());
}

TEST_F(DistTest, BlobRoundtrip) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string name = ShuffleStore::TaskFileName("p1map", 3);
  EXPECT_EQ(name, "p1map/task3");
  const std::vector<std::string> parts = {std::string("binary\0payload", 14),
                                          "", "third"};
  Commit(*store, "p1map", 3, 0, parts);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto read = store->ReadSegment(name, i, "p1map:3");
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, parts[i]) << "segment " << i;
  }
  EXPECT_TRUE(std::filesystem::exists(Path("store/" + name)));
  EXPECT_FALSE(std::filesystem::exists(Path("store/p1map/task4")));
  EXPECT_EQ(std::filesystem::file_size(Path("store/" + name)),
            ShuffleStore::HeaderBytes(3) + 14 + 5);

  // Job inputs: a plain segmented file, no attempts.
  ASSERT_TRUE(store->WriteFile("input/cells", 2, Segments({"a", "bc"})).ok());
  auto input = store->ReadSegment("input/cells", 1, "input");
  ASSERT_TRUE(input.ok()) << input.status();
  EXPECT_EQ(*input, "bc");
  EXPECT_FALSE(std::filesystem::exists(Path("store/input/cells.tmp")));
  EXPECT_FALSE(store->ReadSegment("input/cells", 2, "input").ok());
}

TEST_F(DistTest, CorruptedBlobIsDataLossNamingPathAndTask) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string name = ShuffleStore::TaskFileName("p2map", 5);
  Commit(*store, "p2map", 5, 1, {std::string(256, 'x'), "intact"});

  // Flip one payload byte of segment 0, under its CRC.
  const std::string path = Path("store") + "/" + name;
  {
    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(static_cast<std::streamoff>(ShuffleStore::HeaderBytes(2) + 17));
    file.put('y');
  }

  auto read = store->ReadSegment(name, 0, "p2map:5");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // The message must name both the file and the producing task so the
  // coordinator can re-execute the producer.
  EXPECT_NE(read.status().message().find(name), std::string::npos)
      << read.status();
  EXPECT_NE(read.status().message().find("[task p2map:5]"),
            std::string::npos)
      << read.status();
  // A reader of the other segment never touches the rotten bytes.
  auto intact = store->ReadSegment(name, 1, "p2map:5");
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_EQ(*intact, "intact");
}

TEST_F(DistTest, CommitLifecycle) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  const std::string name = ShuffleStore::TaskFileName("p1map", 0);
  EXPECT_EQ(store->ReadHeader(name, "p1map:0").status().code(),
            StatusCode::kNotFound);

  // A written attempt stays invisible until its rename commits it.
  ASSERT_TRUE(
      store->WriteAttempt("p1map", 0, 2, 1, Segments({"abc"})).ok());
  EXPECT_TRUE(std::filesystem::exists(Path("store/p1map/task0.a2.tmp")));
  EXPECT_EQ(store->ReadHeader(name, "p1map:0").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store->CommitAttempt("p1map", 0, 2).ok());
  EXPECT_FALSE(std::filesystem::exists(Path("store/p1map/task0.a2.tmp")));

  auto commit = store->ReadHeader(name, "p1map:0");
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(commit->attempt, 2);
  ASSERT_EQ(commit->segments.size(), 1u);
  EXPECT_EQ(commit->segments[0].length, 3u);

  // A re-executed attempt's commit replaces the earlier one in place.
  Commit(*store, "p1map", 0, 3, {"abcd"});
  auto replaced = store->ReadHeader(name, "p1map:0");
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ(replaced->attempt, 3);
  EXPECT_EQ(*store->ReadSegment(name, 0, "p1map:0"), "abcd");

  // Committing an attempt that was never written is an error.
  EXPECT_EQ(store->CommitAttempt("p1map", 0, 9).code(),
            StatusCode::kNotFound);
}

TEST_F(DistTest, CommitCarriesRecordCount) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  Commit(*store, "p2red", 4, 1, {"cells"}, 250047);
  auto commit =
      store->ReadHeader(ShuffleStore::TaskFileName("p2red", 4), "p2red:4");
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(commit->records, 250047u);

  // A commit without a count records zero.
  Commit(*store, "p2red", 5, 0, {});
  auto empty =
      store->ReadHeader(ShuffleStore::TaskFileName("p2red", 5), "p2red:5");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->records, 0u);
  EXPECT_TRUE(empty->segments.empty());
}

TEST_F(DistTest, CollectOrphansKeepsOnlyCommittedAttempt) {
  auto store = ShuffleStore::Create(Path("store"));
  ASSERT_TRUE(store.ok());
  // Attempt 0 died between its write and its commit.
  ASSERT_TRUE(
      store->WriteAttempt("p2map", 1, 0, 1, Segments({"stale attempt"}))
          .ok());
  Commit(*store, "p2map", 1, 1, {"winning attempt"});
  // Another task's attempt is not this task's orphan.
  ASSERT_TRUE(
      store->WriteAttempt("p2map", 11, 0, 1, Segments({"other"})).ok());

  auto removed = store->CollectOrphans("p2map", 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path("store/p2map/task1.a0.tmp")));
  EXPECT_TRUE(std::filesystem::exists(Path("store/p2map/task1")));
  EXPECT_TRUE(std::filesystem::exists(Path("store/p2map/task11.a0.tmp")));
  auto winner = store->ReadSegment(ShuffleStore::TaskFileName("p2map", 1), 0,
                                   "p2map:1");
  ASSERT_TRUE(winner.ok()) << winner.status();
  EXPECT_EQ(*winner, "winning attempt");
}

// ------------------------------------------------ hostile task files
//
// Every malformed header must come back as DataLoss carrying the
// producer's culprit tag — never a crash, never an allocation sized by a
// field that was not checked against the file size first.

class HostileTaskFileTest : public DistTest {
 protected:
  static constexpr char kName[] = "p2map/task1";

  void SetUp() override {
    DistTest::SetUp();
    auto store = ShuffleStore::Create(Path("store"));
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<ShuffleStore>(*store);
    Commit(*store_, "p2map", 1, 0, {std::string(40, 'a'), "bb"});
    std::ifstream in(FilePath(), std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes_.size(), ShuffleStore::HeaderBytes(2) + 42);
  }

  std::string FilePath() const { return Path("store/") + kName; }

  /// Replaces the committed file with `bytes`.
  void Rewrite(const std::string& bytes) const {
    std::ofstream out(FilePath(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// `bytes_` with the u64 at `offset` replaced and the header CRC
  /// recomputed, so only the field's own validation can reject it.
  std::string WithU64(std::uint64_t offset, std::uint64_t value) const {
    std::string bytes = bytes_;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    const std::uint64_t crc_at =
        ShuffleStore::HeaderBytes(2) - ShuffleStore::kHeaderCrcBytes;
    const std::uint32_t crc = robust::Crc32(bytes.data(), crc_at);
    std::memcpy(bytes.data() + crc_at, &crc, sizeof(crc));
    return bytes;
  }

  /// Offset of field `field_offset` of segment-table entry `segment`.
  static std::uint64_t EntryField(int segment, std::uint64_t field_offset) {
    return ShuffleStore::kHeaderPrefixBytes +
           ShuffleStore::kSegmentEntryBytes * segment + field_offset;
  }

  void ExpectDataLoss(const std::string& what) const {
    for (std::size_t segment : {0, 1}) {
      auto read = store_->ReadSegment(kName, segment, "p2map:1");
      ASSERT_FALSE(read.ok()) << what;
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
          << what << ": " << read.status();
      EXPECT_NE(read.status().message().find("[task p2map:1]"),
                std::string::npos)
          << what << ": " << read.status();
    }
    auto header = store_->ReadHeader(kName, "p2map:1");
    ASSERT_FALSE(header.ok()) << what;
    EXPECT_EQ(header.status().code(), StatusCode::kDataLoss) << what;
  }

  std::unique_ptr<ShuffleStore> store_;
  std::string bytes_;
};

TEST_F(HostileTaskFileTest, TruncatedHeaderIsDataLoss) {
  for (std::size_t size :
       {std::size_t{0}, std::size_t{10},
        static_cast<std::size_t>(ShuffleStore::kHeaderPrefixBytes),
        static_cast<std::size_t>(ShuffleStore::HeaderBytes(2) - 1)}) {
    Rewrite(bytes_.substr(0, size));
    ExpectDataLoss("truncated to " + std::to_string(size));
  }
  // Cut inside the last segment: the header still parses, the tiling
  // check catches it.
  Rewrite(bytes_.substr(0, bytes_.size() - 1));
  ExpectDataLoss("last segment cut short");
}

TEST_F(HostileTaskFileTest, SegmentCountPastEofIsDataLoss) {
  for (std::uint32_t count : {5u, 1000u, 0xffffffffu}) {
    std::string bytes = bytes_;
    std::memcpy(bytes.data() + 24, &count, sizeof(count));
    Rewrite(bytes);
    ExpectDataLoss("segment count " + std::to_string(count));
  }
}

TEST_F(HostileTaskFileTest, SegmentPastEofOrOverflowingIsDataLoss) {
  const std::uint64_t offset1 = ShuffleStore::HeaderBytes(2) + 40;
  // Length past EOF; offset + length wrapping to 0 and to 1 (inside the
  // file); offset and length at the top of the u64 range.
  Rewrite(WithU64(EntryField(1, 8), 3));
  ExpectDataLoss("length past EOF");
  Rewrite(WithU64(EntryField(1, 8), ~0ull - offset1 + 1));
  ExpectDataLoss("offset + length wraps to 0");
  Rewrite(WithU64(EntryField(1, 8), ~0ull - offset1 + 2));
  ExpectDataLoss("offset + length wraps to 1");
  Rewrite(WithU64(EntryField(0, 0), ~0ull));
  ExpectDataLoss("offset 2^64 - 1");
  Rewrite(WithU64(EntryField(0, 8), ~0ull));
  ExpectDataLoss("length 2^64 - 1");
}

TEST_F(HostileTaskFileTest, HeaderCrcMismatchIsDataLoss) {
  std::string bytes = bytes_;
  bytes[17] ^= 0x01;  // the record count: no other check can see it
  Rewrite(bytes);
  ExpectDataLoss("record count flipped");
}

TEST_F(HostileTaskFileTest, SegmentCrcMismatchIsDataLoss) {
  std::string bytes = bytes_;
  bytes[bytes.size() - 1] ^= 0x01;  // last byte of segment 1
  Rewrite(bytes);
  auto read = store_->ReadSegment(kName, 1, "p2map:1");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
  EXPECT_NE(read.status().message().find("[task p2map:1]"),
            std::string::npos)
      << read.status();
  // Segment 0 and the header are intact.
  auto intact = store_->ReadSegment(kName, 0, "p2map:1");
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_EQ(*intact, std::string(40, 'a'));
}

// ------------------------------------------------------------- codecs

/// A slice of `shape` holding `rows` (indices, then the value), in order.
tensor::SparseTensor Slice(
    const std::vector<std::uint64_t>& shape,
    const std::vector<std::pair<std::vector<std::uint32_t>, double>>& rows) {
  std::vector<std::vector<std::uint32_t>> indices(shape.size());
  std::vector<double> values;
  for (const auto& [idx, value] : rows) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      indices[m].push_back(idx[m]);
    }
    values.push_back(value);
  }
  auto slice = tensor::SparseTensor::FromArrays(shape, std::move(indices),
                                                std::move(values));
  EXPECT_TRUE(slice.ok()) << slice.status();
  return slice.ok() ? *slice : tensor::SparseTensor(shape);
}

std::vector<std::uint32_t> RowOf(const tensor::SparseTensor& t,
                                 std::uint64_t e) {
  std::vector<std::uint32_t> idx(t.num_modes());
  for (std::size_t m = 0; m < idx.size(); ++m) idx[m] = t.Index(m, e);
  return idx;
}

TEST_F(DistTest, CellCodecRoundtrip) {
  namespace internal = core::dm2td_internal;
  const std::vector<std::uint64_t> shape1 = {10, 4, 8}, shape2 = {10, 2, 3};
  const tensor::SparseTensor x1 =
      Slice(shape1, {{{0, 3, 7}, 1.5}, {{5, 1, 0}, 4.0}});
  const tensor::SparseTensor x2 = Slice(shape2, {{{9, 0, 2}, -2.25e-8}});
  auto decoded = tasks::DecodeSlices(
      tasks::EncodeSlices(x1, internal::AllRows(x1), x2, internal::AllRows(x2)),
      shape1, shape2);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->x1.NumNonZeros(), 2u);
  ASSERT_EQ(decoded->x2.NumNonZeros(), 1u);
  EXPECT_EQ(decoded->x1.shape(), shape1);
  EXPECT_EQ(decoded->x2.shape(), shape2);
  EXPECT_EQ(RowOf(decoded->x1, 0), (std::vector<std::uint32_t>{0, 3, 7}));
  EXPECT_EQ(decoded->x1.Value(0), 1.5);
  EXPECT_EQ(RowOf(decoded->x1, 1), (std::vector<std::uint32_t>{5, 1, 0}));
  EXPECT_EQ(RowOf(decoded->x2, 0), (std::vector<std::uint32_t>{9, 0, 2}));
  EXPECT_EQ(decoded->x2.Value(0), -2.25e-8);

  // A row range encodes just those rows; empty slices round-trip.
  auto tail = tasks::DecodeSlices(tasks::EncodeSlices(x1, {1, 2}, x2, {1, 1}),
                                  shape1, shape2);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_EQ(tail->x1.NumNonZeros(), 1u);
  EXPECT_EQ(RowOf(tail->x1, 0), (std::vector<std::uint32_t>{5, 1, 0}));
  EXPECT_EQ(tail->x1.Value(0), 4.0);
  EXPECT_EQ(tail->x2.NumNonZeros(), 0u);
}

TEST_F(DistTest, PartialCoreCodecRoundtrip) {
  std::vector<core::dm2td_internal::PartialCore> parts;
  parts.push_back({7u, 12u, {0.125, -3.5e-9, 0.0, 1e300}});
  parts.push_back({1ull << 40, 0u, {}});
  auto decoded = tasks::DecodePartialCores(tasks::EncodePartialCores(parts));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ((*decoded)[i].pivot_key, parts[i].pivot_key);
    EXPECT_EQ((*decoded)[i].join_cells, parts[i].join_cells);
    EXPECT_EQ((*decoded)[i].values, parts[i].values);
  }
  auto empty = tasks::DecodePartialCores(tasks::EncodePartialCores({}));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
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
  namespace internal = core::dm2td_internal;
  const std::vector<std::uint64_t> shape1 = {2, 3}, shape2 = {2, 4};
  const tensor::SparseTensor x1 = Slice(shape1, {{{1, 2}, 3.0}});
  const tensor::SparseTensor x2 = Slice(shape2, {});
  std::string bytes =
      tasks::EncodeSlices(x1, internal::AllRows(x1), x2, internal::AllRows(x2));
  // Every proper prefix of a slice blob is an IOError, and so is a byte
  // past its end.
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    auto truncated =
        tasks::DecodeSlices(bytes.substr(0, size), shape1, shape2);
    ASSERT_FALSE(truncated.ok()) << size << " bytes";
    EXPECT_EQ(truncated.status().code(), StatusCode::kIOError)
        << size << " bytes";
  }
  auto longer = tasks::DecodeSlices(bytes + '\0', shape1, shape2);
  ASSERT_FALSE(longer.ok());
  EXPECT_EQ(longer.status().code(), StatusCode::kIOError);
  bytes.resize(bytes.size() - 3);
  auto decoded = tasks::DecodeSlices(bytes, shape1, shape2);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);

  // Every proper prefix of a partial-core blob is an IOError.
  const std::string parts = tasks::EncodePartialCores(
      {{3u, 4u, {1.0, 2.0}}, {5u, 6u, {-1.0, 0.5}}});
  for (std::size_t size = 0; size < parts.size(); ++size) {
    auto truncated = tasks::DecodePartialCores(parts.substr(0, size));
    ASSERT_FALSE(truncated.ok()) << size << " bytes";
    EXPECT_EQ(truncated.status().code(), StatusCode::kIOError)
        << size << " bytes";
  }
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

  // Slice row counts whose byte size wraps (2^61 rows of 20 bytes) or
  // exceeds the blob must not size an index column; the arity comes from
  // the shapes, never from the bytes.
  const std::vector<std::uint64_t> shape1 = {4, 4, 4}, shape2 = {4, 4};
  const std::string wrapping_rows = U64Bytes({1ull << 61, 0, 0, 0});
  EXPECT_NO_THROW(ExpectIOError(
      tasks::DecodeSlices(wrapping_rows, shape1, shape2), "slice rows"));
  const std::string long_x2 = U64Bytes({0, 2, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeSlices(long_x2, shape1, shape2),
                                "slice rows"));
  // A partial core claiming 2^61 values (2^64 bytes, wrapping to 0) or
  // just more than remain must not size its value vector.
  const std::string wrapping = U64Bytes({1, 7, 3, 1ull << 61, 0});
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodePartialCores(wrapping), "partial core"));
  const std::string long_core = U64Bytes({1, 7, 3, 2, 0});
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodePartialCores(long_core), "partial core"));

  // Record counts larger than the blob could hold.
  const std::string many = U64Bytes({~0ull, 0, 0, 0});
  EXPECT_NO_THROW(ExpectIOError(tasks::DecodeSlices(many, shape1, shape2),
                                "slice row count"));
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodePartialCores(many), "partial core count"));
  EXPECT_NO_THROW(
      ExpectIOError(tasks::DecodeGramPieces(many), "gram piece count"));
}

// Cell content that passes every CRC yet does not fit the job — an index
// past its mode's extent, rows shorter than the job's arity, pivot keys
// that descend — is IOError in every task that reads it, never an abort in
// a kernel's range check.
TEST_F(DistTest, HostileCellContentIsIOErrorInEveryTask) {
  namespace internal = core::dm2td_internal;
  auto store = ShuffleStore::Create(Path("job"));
  ASSERT_TRUE(store.ok()) << store.status();
  tasks::DistJobConfig config;
  config.full_shape = {3, 4, 5};
  config.shape1 = {3, 4};
  config.shape2 = {3, 5};
  config.pivot_modes = {0};
  config.side1_modes = {1};
  config.side2_modes = {2};
  config.shards = 1;
  std::vector<linalg::Matrix> factors;
  for (std::uint64_t dim : config.full_shape) {
    factors.emplace_back(dim, 2);
    for (double& v : factors.back().mutable_data()) v = 0.5;
  }
  ASSERT_TRUE(store
                  ->WriteFile(tasks::kFactorsFile, factors.size(),
                              [&](std::size_t n) {
                                return tasks::EncodeMatrix(factors[n]);
                              })
                  .ok());
  auto encode = [](const tensor::SparseTensor& x1,
                   const tensor::SparseTensor& x2) {
    return tasks::EncodeSlices(x1, internal::AllRows(x1), x2,
                               internal::AllRows(x2));
  };
  const tensor::SparseTensor x2 = Slice(config.shape2, {{{0, 1}, 2.0}});
  const std::string valid =
      encode(Slice(config.shape1, {{{0, 1}, 1.0}, {{2, 3}, 1.0}}), x2);
  // x1's side index 9 is past its extent 4.
  const std::string out_of_range =
      encode(Slice({3, 16}, {{{1, 9}, 1.0}}), x2);
  // x1 rows of one index where the job has two.
  const std::string short_rows = encode(Slice({3}, {{{1}, 1.0}}), x2);
  // x1 rows at pivot 2, then pivot 0.
  const std::string descending =
      encode(Slice(config.shape1, {{{2, 0}, 1.0}, {{0, 1}, 1.0}}), x2);

  int attempt = 0;
  auto run = [&](const std::string& phase, const std::string& blob) {
    const bool is_map = phase.find("map") != std::string::npos;
    if (is_map) {
      EXPECT_TRUE(store->WriteFile(tasks::kCellsFile, 1, Segments({blob})).ok());
    } else {
      Commit(*store, tasks::MapPhaseOf(phase), 0, attempt, {blob});
    }
    tasks::TaskRequest task;
    task.is_map = is_map;
    task.phase = phase;
    task.attempt = attempt++;
    return tasks::RunDistTask(*store, config, task);
  };
  for (const char* phase : {"p1map", "p1red", "p2map", "p2red"}) {
    SCOPED_TRACE(phase);
    const Status ok = run(phase, valid);
    EXPECT_TRUE(ok.ok()) << ok;
    for (const std::string* blob : {&out_of_range, &short_rows}) {
      const Status status = run(phase, *blob);
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
    }
  }
  const Status unsorted = run("p2red", descending);
  EXPECT_EQ(unsorted.code(), StatusCode::kIOError) << unsorted;
  EXPECT_NE(unsorted.message().find("descend"), std::string::npos)
      << unsorted;

  // A job config whose sub-tensor shapes disagree with its partition is
  // IOError before any slice is decoded against them.
  config.shape1 = {3, 16};
  const Status mismatched = run("p1map", out_of_range);
  EXPECT_EQ(mismatched.code(), StatusCode::kIOError) << mismatched;
}

// The per-pivot body runs once per pivot group wherever the group lands,
// and partial cores are summed in ascending pivot key, so neither the
// shard a pivot hashes to, nor the order shards are gathered in, nor the
// thread backend's worker count moves a bit of the core or its join-cell
// count.
TEST_F(DistTest, PivotBodyIsShardAndWorkerInvariant) {
  namespace internal = core::dm2td_internal;
  // Pivot mode 1 sits between the side modes, so partial cores scatter
  // into the core's original mode order.
  core::PfPartition partition;
  partition.pivot_modes = {1};
  partition.side1_modes = {0};
  partition.side2_modes = {2, 3};
  const std::vector<std::uint64_t> full_shape = {5, 6, 3, 4};
  const std::vector<std::size_t> ranks = {2, 3, 2, 2};
  const internal::JobGeometry geometry =
      internal::MakeGeometry(partition, full_shape);
  Rng rng(11);
  std::vector<linalg::Matrix> factors;
  for (std::size_t m = 0; m < full_shape.size(); ++m) {
    factors.emplace_back(full_shape[m], ranks[m]);
    for (double& v : factors.back().mutable_data()) v = rng.Gaussian();
  }
  // A sparse, ragged sample: some pivots have cells on one side only.
  // Magnitudes spread over many octaves make every sum order-sensitive.
  core::SubEnsembles subs;
  subs.x1 = tensor::SparseTensor({6, 5});
  subs.x2 = tensor::SparseTensor({6, 3, 4});
  for (std::uint32_t p = 0; p < 6; ++p) {
    for (std::uint32_t a = 0; a < 5; ++a) {
      if (p != 4 && rng.UniformDouble() < 0.6) {
        subs.x1.AppendEntry({p, a},
                            rng.Gaussian() * std::ldexp(1.0, 3 * (a % 7)));
      }
    }
    for (std::uint32_t b = 0; b < 12; ++b) {
      if (p != 2 && rng.UniformDouble() < 0.5) {
        subs.x2.AppendEntry({p, b / 4, b % 4},
                            rng.Gaussian() * std::ldexp(1.0, 2 * (b % 9)));
      }
    }
  }
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();
  const std::uint64_t cells = subs.x1.NumNonZeros() + subs.x2.NumNonZeros();

  for (bool zero_join : {false, true}) {
    SCOPED_TRACE(zero_join ? "zero-join" : "join");
    std::vector<std::uint64_t> cand1, cand2;
    if (zero_join) {
      internal::GatherZeroJoinCandidates(subs, geometry, &cand1, &cand2);
    }
    auto builder = internal::PivotCoreBuilder::Create(geometry, factors,
                                                      zero_join, cand1, cand2);
    ASSERT_TRUE(builder.ok()) << builder.status();
    // One p2red task under `shards` map splits: each split routed by
    // pivot key, shard r's slices concatenated in map-task order, its
    // pivots reduced in ascending key.
    auto reduce_shard = [&](int shards, int r) {
      std::vector<internal::ShardSlices> slices;
      for (int m = 0; m < shards; ++m) {
        auto routed = internal::RouteSplit(
            2, geometry, subs.x1,
            internal::SplitRange(subs.x1.NumNonZeros(), shards, m), subs.x2,
            internal::SplitRange(subs.x2.NumNonZeros(), shards, m),
            static_cast<std::size_t>(shards));
        EXPECT_TRUE(routed.ok()) << routed.status();
        for (std::size_t e = 0; e < (*routed)[r].x1.NumNonZeros(); ++e) {
          EXPECT_EQ(internal::RowKey((*routed)[r].x1, e, 0,
                                     geometry.pivot_dims) %
                        static_cast<std::uint64_t>(shards),
                    static_cast<std::uint64_t>(r));
        }
        slices.push_back(std::move((*routed)[r]));
      }
      auto input = internal::ConcatSlices(std::move(slices));
      EXPECT_TRUE(input.ok()) << input.status();
      std::vector<internal::PartialCore> parts;
      EXPECT_TRUE(internal::ReducePivotGroups(
                      *builder, geometry, input->x1,
                      internal::AllRows(input->x1), input->x2,
                      internal::AllRows(input->x2), &parts)
                      .ok());
      return parts;
    };
    auto sum = [&](std::vector<internal::PartialCore> parts,
                   std::uint64_t* join_nnz) {
      *join_nnz = 0;
      auto core = internal::SumPartialCores(&parts, factors, join_nnz);
      EXPECT_TRUE(core.ok()) << core.status();
      return core.ok() ? core->data() : std::vector<double>();
    };

    std::uint64_t expected_nnz = 0;
    const std::vector<double> expected = sum(reduce_shard(1, 0),
                                             &expected_nnz);
    EXPECT_GT(expected_nnz, 0u);
    for (int shards : {2, 3, 5, 8}) {
      for (bool reversed : {false, true}) {
        std::vector<internal::PartialCore> parts;
        for (int i = 0; i < shards; ++i) {
          for (auto& part : reduce_shard(shards, reversed ? shards - 1 - i : i)) {
            parts.push_back(std::move(part));
          }
        }
        std::uint64_t nnz = 0;
        EXPECT_EQ(sum(std::move(parts), &nnz), expected)
            << shards << " shards, reversed " << reversed;
        EXPECT_EQ(nnz, expected_nnz);
      }
    }
    // The thread backend recovers the same bits at every worker count,
    // including more workers than cells: its core equals the one-shard
    // body's under the factors it computed.
    core::DM2tdOptions options;
    options.ranks.assign(ranks.begin(), ranks.end());
    options.stitch.zero_join = zero_join;
    ASSERT_LT(cells, 64u);
    for (int workers : {1, 2, 4, 64}) {
      options.num_workers = workers;
      auto result = core::DM2tdDecompose(subs, partition, full_shape, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->join_nnz, expected_nnz) << workers << " workers";
      auto own = internal::PivotCoreBuilder::Create(
          geometry, result->tucker.factors, zero_join, cand1, cand2);
      ASSERT_TRUE(own.ok()) << own.status();
      std::vector<internal::PartialCore> parts;
      ASSERT_TRUE(internal::ReducePivotGroups(
                      *own, geometry, subs.x1, internal::AllRows(subs.x1),
                      subs.x2, internal::AllRows(subs.x2), &parts)
                      .ok());
      std::uint64_t nnz = 0;
      auto core = internal::SumPartialCores(&parts, result->tucker.factors,
                                            &nnz);
      ASSERT_TRUE(core.ok()) << core.status();
      EXPECT_EQ(result->tucker.core.data(), core->data())
          << workers << " workers";
    }
  }
}

TEST_F(DistTest, TaskFrameRoundtrip) {
  tasks::TaskRequest task;
  task.is_map = false;
  task.phase = "p2red";
  task.index = 5;
  task.attempt = 3;
  EXPECT_EQ(tasks::EncodeTaskFrame(task), "task 0 p2red 5 3");
  auto decoded = tasks::DecodeTaskFrame(tasks::EncodeTaskFrame(task));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->is_map);
  EXPECT_EQ(decoded->phase, "p2red");
  EXPECT_EQ(decoded->index, 5);
  EXPECT_EQ(decoded->attempt, 3);

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
  EXPECT_EQ(tasks::MapPhaseOf("p2red"), "p2map");
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
  // Each spawned worker dialled the coordinator's loopback listener once.
  EXPECT_EQ(process_result->dist.net_connects, 2u);
  EXPECT_EQ(process_result->dist.net_disconnects, 0u);
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

/// The kept job dir of a clean run holds exactly the job config, the
/// input files, each worker's exports and one committed file per task of
/// every phase: no per-task or per-attempt directory and no uncommitted
/// `.tmp`.
void ExpectOneFilePerTask(const std::string& job_dir, int workers,
                          int shards) {
  const std::vector<std::string> phases = {"p1map", "p1red", "p2map",
                                           "p2red"};
  std::set<std::string> expected_files = {"job.m2td", "input/cells",
                                          "input/factors"};
  for (int k = 0; k < workers; ++k) {
    expected_files.insert("worker" + std::to_string(k) + ".metrics.json");
    expected_files.insert("worker" + std::to_string(k) + ".spans.tsv");
  }
  std::set<std::string> expected_dirs = {"input"};
  for (const std::string& phase : phases) {
    expected_dirs.insert(phase);
    for (int m = 0; m < shards; ++m) {
      expected_files.insert(ShuffleStore::TaskFileName(phase, m));
    }
  }
  std::set<std::string> files, dirs;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(job_dir)) {
    const std::string relative =
        std::filesystem::relative(entry.path(), job_dir).string();
    (entry.is_directory() ? dirs : files).insert(relative);
  }
  EXPECT_EQ(files, expected_files);
  EXPECT_EQ(dirs, expected_dirs);
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
      ExpectOneFilePerTask(options.process.job_dir, workers, shards);
    }
  }
}

// The thread backend's phase 2 splits the pivot-key space into one
// contiguous range per worker and finds each range's rows by binary
// search. Ranges that hold no pivot, pivots with cells on one side only,
// and one pivot group holding every cell must all give the process
// backend's bits and record counts.
TEST_F(DistTest, ThreadPivotRangesMatchProcessBackend) {
  core::PfPartition partition;
  partition.pivot_modes = {1};
  partition.side1_modes = {0};
  partition.side2_modes = {2, 3};
  const std::vector<std::uint64_t> full_shape = {5, 6, 3, 4};
  Rng rng(29);
  // Pivot 4 has x2 cells only and pivot 2 x1 cells only.
  core::SubEnsembles ragged;
  ragged.x1 = tensor::SparseTensor({6, 5});
  ragged.x2 = tensor::SparseTensor({6, 3, 4});
  for (std::uint32_t p = 0; p < 6; ++p) {
    for (std::uint32_t a = 0; a < 5; ++a) {
      if (p != 4 && rng.UniformDouble() < 0.7) {
        ragged.x1.AppendEntry({p, a}, rng.Gaussian());
      }
    }
    for (std::uint32_t b = 0; b < 12; ++b) {
      if (p != 2 && rng.UniformDouble() < 0.6) {
        ragged.x2.AppendEntry({p, b / 4, b % 4}, rng.Gaussian());
      }
    }
  }
  // Every cell of both sides at pivot 3.
  core::SubEnsembles single;
  single.x1 = tensor::SparseTensor({6, 5});
  single.x2 = tensor::SparseTensor({6, 3, 4});
  for (std::uint32_t a = 0; a < 5; ++a) {
    single.x1.AppendEntry({3, a}, rng.Gaussian());
  }
  for (std::uint32_t b = 0; b < 12; ++b) {
    single.x2.AppendEntry({3, b / 4, b % 4}, rng.Gaussian());
  }
  for (core::SubEnsembles* subs : {&ragged, &single}) {
    subs->x1.SortAndCoalesce();
    subs->x2.SortAndCoalesce();
  }

  int run = 0;
  for (const core::SubEnsembles* subs : {&ragged, &single}) {
    for (bool zero_join : {false, true}) {
      const std::string label = std::string(subs == &ragged ? "ragged"
                                                            : "single") +
                                (zero_join ? " zero-join" : " join");
      SCOPED_TRACE(label);
      core::DM2tdOptions options;
      options.ranks = {2, 3, 2, 2};
      options.stitch.zero_join = zero_join;
      options.backend = core::DistBackend::kProcess;
      options.process.worker_binary = M2TD_WORKER_BIN;
      options.num_workers = 2;
      options.num_shards = 8;
      options.process.job_dir = Path("job" + std::to_string(run++));
      auto process_result =
          core::DM2tdDecompose(*subs, partition, full_shape, options);
      ASSERT_TRUE(process_result.ok()) << process_result.status();
      EXPECT_GT(process_result->join_nnz, 0u);

      options.backend = core::DistBackend::kThread;
      for (int workers : {1, 2, 3, 64}) {
        options.num_workers = workers;
        auto thread_result =
            core::DM2tdDecompose(*subs, partition, full_shape, options);
        ASSERT_TRUE(thread_result.ok()) << thread_result.status();
        const std::string run_label =
            label + " workers=" + std::to_string(workers);
        SCOPED_TRACE(run_label);
        ExpectBitIdentical(*thread_result, *process_result);
        ExpectSameRecordCounts(*thread_result, *process_result, run_label);
      }
    }
  }
}

// Worker shutdown must not wait out a heartbeat period: with a period
// longer than the coordinator's 5 s drain budget, a sleeping heartbeat
// thread would get the worker SIGKILLed before it exports its metrics.
TEST_F(DistTest, LongHeartbeatPeriodDoesNotDelayWorkerShutdown) {
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = M2TD_WORKER_BIN;
  options.num_workers = 1;
  options.process.heartbeat_ms = 8000.0;
  options.process.job_dir = Path("job");
  const auto start = std::chrono::steady_clock::now();
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     model->space().Shape(), options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(seconds, 3.0);
  EXPECT_EQ(result->dist.worker_deaths, 0u);
  EXPECT_TRUE(std::filesystem::exists(Path("job/worker0.metrics.json")));
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

/// Forks and execs m2td_worker with `args` (argv[0] is added).
pid_t StartWorker(const std::vector<std::string>& args) {
  std::vector<std::string> owned = {M2TD_WORKER_BIN};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(M2TD_WORKER_BIN, argv.data());
    _exit(127);
  }
  return pid;
}

/// Waits for `pid` and returns its exit code (-1 unless it exited).
int ExitCodeOf(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
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

  auto listener = mapreduce::transport::Listener::Listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.status();
  const pid_t pid =
      StartWorker({"--job_dir=" + root_.string(), "--worker_id=0",
                   "--connect=" + listener->bound_address()});
  ASSERT_GT(pid, 0);

  pollfd pfd{listener->fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1) << "the worker never dialled in";
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok()) << conn.status();
  auto hello = conn->ReadFrame(10000.0);
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(*hello, "hello 0");
  ASSERT_TRUE(conn->WriteFrame("gibberish \x01\x02", 10000.0).ok());

  EXPECT_EQ(ExitCodeOf(pid), tasks::kWorkerExitMalformedFrame);
  EXPECT_STREQ(tasks::WorkerExitCodeName(tasks::kWorkerExitMalformedFrame),
               "malformed frame");
}

TEST_F(DistTest, WorkerWithoutConnectIsBadInvocation) {
  // Every worker attaches by dialling the coordinator; there is no other
  // control channel to fall back to.
  const pid_t pid = StartWorker({"--job_dir=" + root_.string()});
  ASSERT_GT(pid, 0);
  EXPECT_EQ(ExitCodeOf(pid), tasks::kWorkerExitBadInvocation);
}

TEST_F(DistTest, HostileJobConfigCountExitsWorkerBadJob) {
  // A list count no file can back must fail the config load with the
  // bad-job exit, not abort the worker on a count-sized allocation. The
  // worker loads its config before it dials, so nothing listens here.
  ASSERT_TRUE(io::ShuffleStore::Create(Path("")).ok());
  {
    std::ofstream out(Path("job.m2td"));
    out << "m2td-dist-job 1\nfull_shape 18446744073709551615 4 4\n";
  }
  const pid_t pid =
      StartWorker({"--job_dir=" + root_.string(), "--worker_id=0",
                   "--connect=127.0.0.1:9"});
  ASSERT_GT(pid, 0);
  EXPECT_EQ(ExitCodeOf(pid), tasks::kWorkerExitBadJob);
}

TEST_F(DistTest, WorkersThatDieBeforeAttachingFailTheRunAtOnce) {
  // A worker binary that exits at once never dials in. The coordinator
  // reaps it while it waits for hellos and fails the run, instead of
  // waiting out the attach budget (the 30 s task lease).
  auto model = SmallModel();
  auto partition = core::MakePartition(5, {0});
  ASSERT_TRUE(partition.ok());
  auto subs = core::BuildSubEnsembles(model.get(), *partition, {});
  ASSERT_TRUE(subs.ok());

  core::DM2tdOptions options;
  options.ranks = std::vector<std::uint64_t>(5, 2);
  options.backend = core::DistBackend::kProcess;
  options.process.worker_binary = "/bin/false";
  options.num_workers = 2;
  options.process.job_dir = Path("job");
  const auto start = std::chrono::steady_clock::now();
  auto result = core::DM2tdDecompose(*subs, *partition,
                                     model->space().Shape(), options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("workers died"),
            std::string::npos)
      << result.status();
  EXPECT_LT(seconds, 5.0);
}

TEST_F(DistTest, SocketTransportMatchesThreadBitIdentical) {
  // The remote deployment on one box: the coordinator forks nothing and
  // two externally started workers dial its listen address.
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

  // A free loopback port for the coordinator to listen on.
  std::string address;
  {
    auto probe = mapreduce::transport::Listener::Listen("127.0.0.1:0");
    ASSERT_TRUE(probe.ok()) << probe.status();
    address = probe->bound_address();
  }
  options.backend = core::DistBackend::kProcess;
  options.num_workers = 2;
  options.process.spawn_workers = false;
  options.process.listen = address;
  options.process.job_dir = Path("job");

  // The workers load the job config at startup, so they start once the
  // coordinator has written it.
  std::vector<pid_t> workers;
  std::thread launcher([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!std::filesystem::exists(Path("job/job.m2td"))) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (int k = 0; k < 2; ++k) {
      workers.push_back(StartWorker({"--job_dir=" + Path("job"),
                                     "--worker_id=" + std::to_string(k),
                                     "--connect=" + address}));
    }
  });
  auto socket_result = core::DM2tdDecompose(
      *subs, *partition, model->space().Shape(), options);
  launcher.join();
  if (!socket_result.ok()) {
    for (pid_t pid : workers) ::kill(pid, SIGKILL);
  }
  std::vector<int> exit_codes;
  for (pid_t pid : workers) exit_codes.push_back(ExitCodeOf(pid));
  ASSERT_TRUE(socket_result.ok()) << socket_result.status();

  ExpectBitIdentical(*socket_result, *thread_result);
  EXPECT_EQ(exit_codes, std::vector<int>({0, 0}));
  EXPECT_EQ(socket_result->dist.workers_spawned, 0);
  EXPECT_EQ(socket_result->dist.worker_deaths, 0u);
  EXPECT_EQ(socket_result->dist.net_connects, 2u);
  EXPECT_EQ(socket_result->dist.net_disconnects, 0u);
  EXPECT_GT(socket_result->dist.heartbeats, 0u);
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
