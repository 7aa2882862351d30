// Seeded, deterministic mutation sweep over every decoder of the process
// backend's task vocabulary (ctest -L distributed): the dm2td_tasks::Decode*
// record codecs, DecodeTaskFrame and LoadJobConfig. Each starts from a
// small valid blob and
// decodes every proper prefix, every single-byte flip and every count
// prefix rewritten to 0, 1, 2^32 and 2^64 - 1. Every input must come back
// as a Status — never a throw, never an allocation sized by a hostile
// count. Run it under ASAN+UBSAN (see docs/ROBUSTNESS.md) to also rule out
// out-of-bounds reads.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/dm2td_internal.h"
#include "core/dm2td_tasks.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace m2td {
namespace {

namespace internal = core::dm2td_internal;
namespace tasks = core::dm2td_tasks;

const std::vector<std::uint64_t> kShape1 = {3, 4}, kShape2 = {3, 5};

/// One decoder under test: a valid blob, the byte offsets of its binary
/// count prefixes, and the decode call (OK or not).
struct Decoder {
  std::string name;
  std::string blob;
  std::vector<std::size_t> count_offsets;
  std::function<Status(const std::string&)> decode;
};

template <typename T>
std::function<Status(const std::string&)> StatusOf(
    Result<T> (*decode)(const std::string&)) {
  return [decode](const std::string& bytes) { return decode(bytes).status(); };
}

tensor::SparseTensor Tensor(const std::vector<std::uint64_t>& shape,
                            std::vector<std::vector<std::uint32_t>> indices,
                            std::vector<double> values) {
  auto t = tensor::SparseTensor::FromArrays(shape, std::move(indices),
                                            std::move(values));
  EXPECT_TRUE(t.ok()) << t.status();
  return t.ok() ? *t : tensor::SparseTensor(shape);
}

/// A decoded slice pair must hold only in-range indices of the job's
/// shapes, whatever bytes it came from.
Status DecodeAndCheckSlices(const std::string& bytes) {
  auto slices = tasks::DecodeSlices(bytes, kShape1, kShape2);
  if (!slices.ok()) return slices.status();
  for (const tensor::SparseTensor* t : {&slices->x1, &slices->x2}) {
    const std::vector<std::uint64_t>& shape =
        t == &slices->x1 ? kShape1 : kShape2;
    EXPECT_EQ(t->shape(), shape);
    for (std::size_t m = 0; m < t->num_modes(); ++m) {
      for (std::uint32_t i : t->IndexArray(m)) EXPECT_LT(i, shape[m]);
    }
  }
  return Status::OK();
}

std::vector<Decoder> BinaryDecoders() {
  const tensor::SparseTensor x1 =
      Tensor(kShape1, {{0, 2}, {3, 1}}, {1.5, -2.0});
  const tensor::SparseTensor x2 = Tensor(kShape2, {{1}, {4}}, {0.25});
  linalg::Matrix m(2, 3);
  for (std::size_t i = 0; i < 6; ++i) m.mutable_data()[i] = 0.5 * i;
  linalg::Matrix g(2, 2);
  g.mutable_data() = {2.0, 1.0, 1.0, 3.0};
  return {
      {"slices",
       tasks::EncodeSlices(x1, internal::AllRows(x1), x2,
                           internal::AllRows(x2)),
       {0, 8},
       DecodeAndCheckSlices},
      {"partial cores",
       tasks::EncodePartialCores({{3, 4, {1.0, 2.0}}, {5, 6, {-1.0}}}),
       {0, 24},
       StatusOf(tasks::DecodePartialCores)},
      // Piece record: kappa u32 at 8, sub_mode at 12, rows at 20, cols at 28.
      {"gram pieces",
       tasks::EncodeGramPieces({{1, 0, g}, {2, 1, g}}),
       {0, 20, 28},
       StatusOf(tasks::DecodeGramPieces)},
      {"matrix", tasks::EncodeMatrix(m), {0, 8},
       StatusOf(tasks::DecodeMatrix)},
      {"u64 list", tasks::EncodeU64List({0, 1ull << 40, 7}), {0},
       StatusOf(tasks::DecodeU64List)},
  };
}

Decoder TaskFrameDecoder() {
  tasks::TaskRequest task;
  task.is_map = false;
  task.phase = "p2red";
  task.index = 5;
  task.attempt = 3;
  return {"task frame", tasks::EncodeTaskFrame(task), {},
          StatusOf(tasks::DecodeTaskFrame)};
}

tasks::DistJobConfig JobConfig() {
  tasks::DistJobConfig config;
  config.full_shape = {3, 4, 5, 6};
  config.shape1 = {3, 4, 5};
  config.shape2 = {3, 6};
  config.pivot_modes = {0};
  config.side1_modes = {1, 2};
  config.side2_modes = {3};
  config.shards = 8;
  config.zero_join = true;
  return config;
}

/// The job config is a text file: its decoder writes the bytes to a
/// scratch file, loads it and removes it.
Decoder JobConfigDecoder() {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("m2td_decoder_mutation_" + std::to_string(::getpid()) + ".m2td"))
          .string();
  EXPECT_TRUE(tasks::SaveJobConfig(path, JobConfig()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return {"job config", blob, {}, [path](const std::string& bytes) {
            {
              std::ofstream out(path, std::ios::binary | std::ios::trunc);
              out << bytes;
            }
            const Status status = tasks::LoadJobConfig(path).status();
            std::filesystem::remove(path);
            return status;
          }};
}

/// The decoders whose mutations are only required to come back as a
/// Status: a text prefix or flip can still spell a valid blob.
std::vector<Decoder> TextDecoders() {
  return {TaskFrameDecoder(), JobConfigDecoder()};
}

/// Decodes `bytes` with `decoder`, failing the test on a throw.
Status Decode(const Decoder& decoder, const std::string& bytes,
              const std::string& what) {
  Status status = Status::OK();
  EXPECT_NO_THROW(status = decoder.decode(bytes))
      << decoder.name << ": " << what;
  return status;
}

TEST(DecoderMutationTest, ValidBlobsDecode) {
  std::vector<Decoder> decoders = BinaryDecoders();
  for (Decoder& decoder : TextDecoders()) decoders.push_back(decoder);
  for (const Decoder& decoder : decoders) {
    const Status status = Decode(decoder, decoder.blob, "valid blob");
    EXPECT_TRUE(status.ok()) << decoder.name << ": " << status;
  }
}

TEST(DecoderMutationTest, EveryProperPrefixIsAStatus) {
  for (const Decoder& decoder : BinaryDecoders()) {
    for (std::size_t size = 0; size < decoder.blob.size(); ++size) {
      const std::string what = std::to_string(size) + "-byte prefix";
      const Status status = Decode(decoder, decoder.blob.substr(0, size), what);
      // Every binary record ends in a field the prefix cuts.
      EXPECT_EQ(status.code(), StatusCode::kIOError)
          << decoder.name << ": " << what << ": " << status;
    }
  }
  for (const Decoder& decoder : TextDecoders()) {
    for (std::size_t size = 0; size < decoder.blob.size(); ++size) {
      Decode(decoder, decoder.blob.substr(0, size),
             std::to_string(size) + "-byte prefix");
    }
  }
}

TEST(DecoderMutationTest, EverySingleByteFlipIsAStatus) {
  std::vector<Decoder> decoders = BinaryDecoders();
  for (Decoder& decoder : TextDecoders()) decoders.push_back(decoder);
  Rng rng(20261020);
  for (const Decoder& decoder : decoders) {
    for (std::size_t pos = 0; pos < decoder.blob.size(); ++pos) {
      // All bits, then a seeded non-zero mask.
      const unsigned char masks[2] = {
          0xff, static_cast<unsigned char>(1 + rng.UniformInt(255))};
      for (unsigned char mask : masks) {
        std::string bytes = decoder.blob;
        bytes[pos] = static_cast<char>(bytes[pos] ^ mask);
        Decode(decoder, bytes,
               "byte " + std::to_string(pos) + " ^ " + std::to_string(mask));
      }
    }
  }
}

TEST(DecoderMutationTest, RewrittenCountPrefixesAreAStatus) {
  const std::uint64_t counts[] = {0, 1, 1ull << 32, ~0ull};
  for (const Decoder& decoder : BinaryDecoders()) {
    for (std::size_t offset : decoder.count_offsets) {
      ASSERT_LE(offset + sizeof(std::uint64_t), decoder.blob.size());
      for (std::uint64_t count : counts) {
        std::string bytes = decoder.blob;
        std::memcpy(bytes.data() + offset, &count, sizeof(count));
        const std::string what = "count at byte " + std::to_string(offset) +
                                 " = " + std::to_string(count);
        const Status status = Decode(decoder, bytes, what);
        // The blobs are far smaller than 2^32 of anything.
        if (count >= (1ull << 32)) {
          EXPECT_EQ(status.code(), StatusCode::kIOError)
              << decoder.name << ": " << what << ": " << status;
        }
      }
    }
  }
  // The frame's numeric fields, rewritten as text.
  const Decoder frame = TaskFrameDecoder();
  for (const char* count : {"0", "1", "4294967296", "18446744073709551615"}) {
    for (const std::string& bytes :
         {std::string("task ") + count + " p2red 5 3",
          std::string("task 0 p2red ") + count + " 3",
          std::string("task 0 p2red 5 ") + count}) {
      Decode(frame, bytes, bytes);
    }
  }
  // Each list count of the job config, rewritten. A count past the
  // values the file holds must fail, without sizing anything by it.
  const Decoder job = JobConfigDecoder();
  const tasks::DistJobConfig config = JobConfig();
  const std::pair<const char*, std::size_t> lists[] = {
      {"full_shape", config.full_shape.size()},
      {"shape1", config.shape1.size()},
      {"shape2", config.shape2.size()},
      {"pivot_modes", config.pivot_modes.size()},
      {"side1_modes", config.side1_modes.size()},
      {"side2_modes", config.side2_modes.size()}};
  for (const auto& [label, size] : lists) {
    const std::string field = std::string("\n") + label + " " +
                              std::to_string(size) + " ";
    const std::size_t at = job.blob.find(field);
    ASSERT_NE(at, std::string::npos) << label;
    for (const char* count : {"0", "1", "4294967296", "18446744073709551615"}) {
      std::string bytes = job.blob;
      bytes.replace(at, field.size(),
                    std::string("\n") + label + " " + count + " ");
      const std::string what = std::string(label) + " count " + count;
      const Status status = Decode(job, bytes, what);
      if (std::to_string(size) != count) {
        EXPECT_EQ(status.code(), StatusCode::kIOError)
            << what << ": " << status;
      }
    }
  }
}

}  // namespace
}  // namespace m2td
