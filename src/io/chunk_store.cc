#include "io/chunk_store.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "io/tensor_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/crc32.h"
#include "robust/durable.h"
#include "robust/failpoint.h"
#include "robust/retry.h"

namespace m2td::io {

namespace {

constexpr char kManifestName[] = "manifest.m2td";
constexpr char kManifestMagic[] = "m2td-chunk-store";
/// Blob footer: this magic followed by the CRC-32 (as a little-endian
/// u64) of every byte before the footer. Appended after the binary COO
/// payload; LoadSparseBinary reads exact counts and ignores trailing
/// bytes, so checksummed blobs stay readable by the plain loader and
/// legacy blobs (no footer) stay readable here.
constexpr std::uint64_t kCrcFooterMagic = 0x4d32544443524331ULL;  // "M2TDCRC1"
constexpr std::uint64_t kCrcFooterBytes = 16;

std::uint64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void CountChunkRead(const std::string& path) {
  obs::GetCounter("io.chunks_read").Add(1);
  obs::GetCounter("io.bytes_read").Add(FileSizeOrZero(path));
}

/// Writes `chunk` durably: serialize + CRC footer at a temp path, then
/// rename into place (AtomicWriteFile), retried per the global policy.
Status WriteChunkBlob(const tensor::SparseTensor& chunk,
                      const std::string& path) {
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "chunk_store.write_blob", [&]() -> Status {
        M2TD_RETURN_IF_ERROR(
            robust::CheckFailpoint("chunk_store.write_blob"));
        return robust::AtomicWriteFile(path, [&](const std::string& tmp) {
          M2TD_RETURN_IF_ERROR(SaveSparseBinary(chunk, tmp));
          M2TD_ASSIGN_OR_RETURN(std::uint32_t crc, robust::Crc32OfFile(tmp));
          std::ofstream out(tmp, std::ios::binary | std::ios::app);
          if (!out) return Status::IOError("cannot append CRC to '" + tmp +
                                           "'");
          const std::uint64_t magic = kCrcFooterMagic;
          const std::uint64_t crc64 = crc;
          out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
          out.write(reinterpret_cast<const char*>(&crc64), sizeof(crc64));
          if (!out) return Status::IOError("CRC footer write failed for '" +
                                           tmp + "'");
          return Status::OK();
        });
      });
}

/// Verifies the CRC footer (when present) and loads the blob, retrying
/// transient failures. A checksum mismatch is DataLoss and not retried.
Result<tensor::SparseTensor> ReadChunkBlob(const std::string& path) {
  return robust::RetryCall<tensor::SparseTensor>(
      robust::GlobalRetryPolicy(), "chunk_store.read_blob",
      [&]() -> Result<tensor::SparseTensor> {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("chunk_store.read_blob"));
        const std::uint64_t size = FileSizeOrZero(path);
        if (size > kCrcFooterBytes) {
          std::ifstream in(path, std::ios::binary);
          if (!in) return Status::IOError("cannot open '" + path + "'");
          in.seekg(static_cast<std::streamoff>(size - kCrcFooterBytes));
          std::uint64_t magic = 0, stored = 0;
          in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
          in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
          if (in && magic == kCrcFooterMagic) {
            M2TD_ASSIGN_OR_RETURN(
                std::uint32_t actual,
                robust::Crc32OfFile(path, size - kCrcFooterBytes));
            if (actual != static_cast<std::uint32_t>(stored)) {
              obs::GetCounter("io.crc_failures").Add(1);
              return Status::DataLoss(
                  "chunk blob '" + path + "' failed its CRC-32 check (" +
                  std::to_string(actual) + " vs stored " +
                  std::to_string(stored) + ")");
            }
          }
        }
        CountChunkRead(path);
        return LoadSparseBinary(path);
      });
}

}  // namespace

Result<ChunkStore> ChunkStore::Create(const std::string& directory,
                                      std::vector<std::uint64_t> shape,
                                      std::vector<std::uint64_t> chunk_shape) {
  if (shape.empty() || shape.size() != chunk_shape.size()) {
    return Status::InvalidArgument(
        "shape and chunk_shape must be non-empty and same arity");
  }
  for (std::size_t m = 0; m < shape.size(); ++m) {
    if (shape[m] == 0 || chunk_shape[m] == 0) {
      return Status::InvalidArgument("extents must be positive");
    }
    if (chunk_shape[m] > shape[m]) chunk_shape[m] = shape[m];
  }
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create store directory '" + directory +
                           "': " + ec.message());
  }
  if (std::filesystem::exists(std::filesystem::path(directory) /
                              kManifestName)) {
    return Status::AlreadyExists("store already exists at '" + directory +
                                 "'");
  }
  ChunkStore store(directory, std::move(shape), std::move(chunk_shape));
  M2TD_RETURN_IF_ERROR(store.WriteManifest());
  return store;
}

Result<ChunkStore> ChunkStore::Open(const std::string& directory) {
  const std::string manifest_path =
      (std::filesystem::path(directory) / kManifestName).string();
  std::ifstream in(manifest_path);
  if (!in) {
    return Status::IOError("cannot open manifest '" + manifest_path + "'");
  }
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kManifestMagic || version != 1) {
    return Status::IOError("malformed manifest in '" + directory + "'");
  }
  std::size_t modes = 0;
  std::string token;
  if (!(in >> token >> modes) || token != "modes" || modes == 0) {
    return Status::IOError("malformed manifest: modes");
  }
  auto read_shape = [&](const char* label,
                        std::vector<std::uint64_t>* out) -> Status {
    if (!(in >> token) || token != label) {
      return Status::IOError(std::string("malformed manifest: ") + label);
    }
    out->resize(modes);
    for (std::uint64_t& d : *out) {
      if (!(in >> d) || d == 0) {
        return Status::IOError("malformed manifest: extent");
      }
    }
    return Status::OK();
  };
  std::vector<std::uint64_t> shape, chunk_shape;
  M2TD_RETURN_IF_ERROR(read_shape("shape", &shape));
  M2TD_RETURN_IF_ERROR(read_shape("chunk_shape", &chunk_shape));

  std::size_t num_chunks = 0;
  if (!(in >> token >> num_chunks) || token != "chunks") {
    return Status::IOError("malformed manifest: chunks");
  }
  ChunkStore store(directory, std::move(shape), std::move(chunk_shape));
  for (std::size_t i = 0; i < num_chunks; ++i) {
    std::uint64_t id = 0, nnz = 0;
    if (!(in >> id >> nnz)) {
      return Status::IOError("malformed manifest: chunk entry");
    }
    store.chunks_[id] = nnz;
  }
  return store;
}

std::vector<std::uint64_t> ChunkStore::ChunkGrid() const {
  std::vector<std::uint64_t> grid(shape_.size());
  for (std::size_t m = 0; m < shape_.size(); ++m) {
    grid[m] = (shape_[m] + chunk_shape_[m] - 1) / chunk_shape_[m];
  }
  return grid;
}

std::uint64_t ChunkStore::ChunkIdOf(
    const std::vector<std::uint64_t>& chunk_index) const {
  const std::vector<std::uint64_t> grid = ChunkGrid();
  std::uint64_t id = 0;
  for (std::size_t m = 0; m < grid.size(); ++m) {
    id = id * grid[m] + chunk_index[m];
  }
  return id;
}

std::string ChunkStore::ChunkPath(std::uint64_t chunk_id) const {
  return (std::filesystem::path(directory_) /
          ("chunk_" + std::to_string(chunk_id) + ".bin"))
      .string();
}

Status ChunkStore::WriteManifest() const {
  const std::string manifest_path =
      (std::filesystem::path(directory_) / kManifestName).string();
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "chunk_store.write_manifest",
      [&]() -> Status {
        M2TD_RETURN_IF_ERROR(
            robust::CheckFailpoint("chunk_store.write_manifest"));
        // Temp-then-rename: a crash mid-write leaves the previous manifest
        // intact, so the store never becomes unreadable.
        return robust::AtomicWriteFile(
            manifest_path, [&](const std::string& tmp) -> Status {
              std::ofstream out(tmp);
              if (!out) {
                return Status::IOError("cannot write manifest '" + tmp + "'");
              }
              out << kManifestMagic << " 1\n";
              out << "modes " << shape_.size() << "\n";
              out << "shape";
              for (std::uint64_t d : shape_) out << " " << d;
              out << "\nchunk_shape";
              for (std::uint64_t d : chunk_shape_) out << " " << d;
              out << "\nchunks " << chunks_.size() << "\n";
              for (const auto& [id, nnz] : chunks_) {
                out << id << " " << nnz << "\n";
              }
              out.flush();
              if (!out) return Status::IOError("manifest write failed");
              return Status::OK();
            });
      });
}

std::uint64_t ChunkStore::TotalNonZeros() const {
  std::uint64_t total = 0;
  for (const auto& [id, nnz] : chunks_) total += nnz;
  return total;
}

Status ChunkStore::Write(const tensor::SparseTensor& x) {
  if (x.shape() != shape_) {
    return Status::InvalidArgument("tensor shape does not match store");
  }
  obs::ObsSpan span("chunk_store_write");
  span.Annotate("nnz", x.NumNonZeros());
  // Drop previous blobs.
  for (const auto& [id, nnz] : chunks_) {
    std::error_code ec;
    std::filesystem::remove(ChunkPath(id), ec);
  }
  chunks_.clear();

  // Bucket entries by owning chunk.
  const std::size_t modes = shape_.size();
  std::unordered_map<std::uint64_t, tensor::SparseTensor> buckets;
  std::vector<std::uint64_t> chunk_index(modes);
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < x.NumNonZeros(); ++e) {
    for (std::size_t m = 0; m < modes; ++m) {
      idx[m] = x.Index(m, e);
      chunk_index[m] = idx[m] / chunk_shape_[m];
    }
    const std::uint64_t id = ChunkIdOf(chunk_index);
    auto it = buckets.find(id);
    if (it == buckets.end()) {
      it = buckets.emplace(id, tensor::SparseTensor(shape_)).first;
    }
    it->second.AppendEntry(idx, x.Value(e));
  }

  for (auto& [id, chunk] : buckets) {
    chunk.SortAndCoalesce();
    const std::string path = ChunkPath(id);
    M2TD_RETURN_IF_ERROR(WriteChunkBlob(chunk, path));
    chunks_[id] = chunk.NumNonZeros();
    obs::GetCounter("io.chunks_written").Add(1);
    obs::GetCounter("io.bytes_written").Add(FileSizeOrZero(path));
  }
  span.Annotate("chunks", static_cast<std::uint64_t>(buckets.size()));
  return WriteManifest();
}

Result<tensor::SparseTensor> ChunkStore::ReadChunk(
    const std::vector<std::uint64_t>& chunk_index) const {
  if (chunk_index.size() != shape_.size()) {
    return Status::InvalidArgument("chunk index arity mismatch");
  }
  const std::vector<std::uint64_t> grid = ChunkGrid();
  for (std::size_t m = 0; m < grid.size(); ++m) {
    if (chunk_index[m] >= grid[m]) {
      return Status::OutOfRange("chunk index outside the chunk grid");
    }
  }
  const std::uint64_t id = ChunkIdOf(chunk_index);
  if (chunks_.find(id) == chunks_.end()) {
    tensor::SparseTensor empty(shape_);
    empty.SortAndCoalesce();
    return empty;
  }
  return ReadChunkBlob(ChunkPath(id));
}

Result<tensor::SparseTensor> ChunkStore::ReadAll() const {
  obs::ObsSpan span("chunk_store_read_all");
  span.Annotate("chunks", static_cast<std::uint64_t>(chunks_.size()));
  tensor::SparseTensor out(shape_);
  std::vector<std::uint32_t> idx(shape_.size());
  for (const auto& [id, nnz] : chunks_) {
    M2TD_ASSIGN_OR_RETURN(tensor::SparseTensor chunk,
                          ReadChunkBlob(ChunkPath(id)));
    for (std::uint64_t e = 0; e < chunk.NumNonZeros(); ++e) {
      for (std::size_t m = 0; m < shape_.size(); ++m) {
        idx[m] = chunk.Index(m, e);
      }
      out.AppendEntry(idx, chunk.Value(e));
    }
  }
  out.SortAndCoalesce();
  return out;
}

Result<tensor::SparseTensor> ChunkStore::ReadRegion(
    const std::vector<std::uint64_t>& lo,
    const std::vector<std::uint64_t>& hi) const {
  const std::size_t modes = shape_.size();
  if (lo.size() != modes || hi.size() != modes) {
    return Status::InvalidArgument("region arity mismatch");
  }
  for (std::size_t m = 0; m < modes; ++m) {
    if (lo[m] >= hi[m] || hi[m] > shape_[m]) {
      return Status::InvalidArgument("empty or out-of-range region");
    }
  }
  obs::ObsSpan span("chunk_store_read_region");
  // Chunk-grid bounding box of the region.
  std::vector<std::uint64_t> chunk_lo(modes), chunk_hi(modes);
  for (std::size_t m = 0; m < modes; ++m) {
    chunk_lo[m] = lo[m] / chunk_shape_[m];
    chunk_hi[m] = (hi[m] - 1) / chunk_shape_[m] + 1;
  }

  tensor::SparseTensor out(shape_);
  std::vector<std::uint64_t> cursor = chunk_lo;
  std::vector<std::uint32_t> idx(modes);
  while (true) {
    const std::uint64_t id = ChunkIdOf(cursor);
    if (chunks_.find(id) != chunks_.end()) {
      M2TD_ASSIGN_OR_RETURN(tensor::SparseTensor chunk,
                            ReadChunkBlob(ChunkPath(id)));
      for (std::uint64_t e = 0; e < chunk.NumNonZeros(); ++e) {
        bool inside = true;
        for (std::size_t m = 0; m < modes; ++m) {
          idx[m] = chunk.Index(m, e);
          if (idx[m] < lo[m] || idx[m] >= hi[m]) {
            inside = false;
            break;
          }
        }
        if (inside) out.AppendEntry(idx, chunk.Value(e));
      }
    }
    // Advance the chunk cursor inside the bounding box.
    std::size_t m = modes;
    while (m-- > 0) {
      if (++cursor[m] < chunk_hi[m]) break;
      cursor[m] = chunk_lo[m];
      if (m == 0) {
        out.SortAndCoalesce();
        return out;
      }
    }
  }
}

// --------------------------------------------------------- ShuffleStore

Result<ShuffleStore> ShuffleStore::Create(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create shuffle directory '" + directory +
                           "': " + ec.message());
  }
  return ShuffleStore(directory);
}

std::string ShuffleStore::BlobName(const std::string& phase, int task,
                                   int attempt, const std::string& leaf) {
  return phase + "/task" + std::to_string(task) + "/a" +
         std::to_string(attempt) + "/" + leaf;
}

std::string ShuffleStore::CommitPath(const std::string& phase,
                                     int task) const {
  return (std::filesystem::path(directory_) / phase /
          ("task" + std::to_string(task) + ".commit"))
      .string();
}

Status ShuffleStore::WriteBlob(const std::string& name,
                               const std::string& payload) const {
  const std::filesystem::path path = std::filesystem::path(directory_) / name;
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create blob directory for '" +
                           path.string() + "': " + ec.message());
  }
  M2TD_RETURN_IF_ERROR(robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "shuffle_store.write_blob",
      [&]() -> Status {
        M2TD_RETURN_IF_ERROR(
            robust::CheckFailpoint("shuffle_store.write_blob"));
        return robust::AtomicWriteFile(
            path.string(), [&](const std::string& tmp) -> Status {
              std::ofstream out(tmp, std::ios::binary);
              if (!out) {
                return Status::IOError("cannot write shuffle blob '" + tmp +
                                       "'");
              }
              out.write(payload.data(),
                        static_cast<std::streamsize>(payload.size()));
              const std::uint64_t magic = kCrcFooterMagic;
              const std::uint64_t crc64 =
                  robust::Crc32(payload.data(), payload.size());
              out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
              out.write(reinterpret_cast<const char*>(&crc64), sizeof(crc64));
              out.flush();
              if (!out) {
                return Status::IOError("shuffle blob write failed for '" +
                                       tmp + "'");
              }
              return Status::OK();
            });
      }));
  obs::GetCounter("io.shuffle_blobs_written").Add(1);
  obs::GetCounter("io.shuffle_bytes_written")
      .Add(payload.size() + kCrcFooterBytes);
  return Status::OK();
}

Result<std::string> ShuffleStore::ReadBlob(const std::string& name,
                                           const std::string& context) const {
  const std::string path =
      (std::filesystem::path(directory_) / name).string();
  const std::string tag = " [task " + context + "]";
  return robust::RetryCall<std::string>(
      robust::GlobalRetryPolicy(), "shuffle_store.read_blob",
      [&]() -> Result<std::string> {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("shuffle_store.read_blob"));
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in) {
          return Status::IOError("cannot open shuffle blob '" + path + "'" +
                                 tag);
        }
        const std::streamoff file_size = in.tellg();
        std::string bytes;
        if (file_size >= 0) {
          bytes.resize(static_cast<std::size_t>(file_size));
          in.seekg(0);
          in.read(bytes.data(), file_size);
        }
        if (file_size < 0 || !in) {
          return Status::IOError("cannot read shuffle blob '" + path + "'" +
                                 tag);
        }
        if (bytes.size() < kCrcFooterBytes) {
          obs::GetCounter("io.crc_failures").Add(1);
          return Status::DataLoss("shuffle blob '" + path +
                                  "' is truncated (no CRC-32 footer)" + tag);
        }
        std::uint64_t magic = 0, stored = 0;
        const std::size_t payload_size = bytes.size() - kCrcFooterBytes;
        std::memcpy(&magic, bytes.data() + payload_size, sizeof(magic));
        std::memcpy(&stored, bytes.data() + payload_size + sizeof(magic),
                    sizeof(stored));
        if (magic != kCrcFooterMagic) {
          obs::GetCounter("io.crc_failures").Add(1);
          return Status::DataLoss("shuffle blob '" + path +
                                  "' has a corrupt CRC-32 footer" + tag);
        }
        const std::uint32_t actual =
            robust::Crc32(bytes.data(), payload_size);
        if (actual != static_cast<std::uint32_t>(stored)) {
          obs::GetCounter("io.crc_failures").Add(1);
          return Status::DataLoss(
              "shuffle blob '" + path + "' failed its CRC-32 check (" +
              std::to_string(actual) + " vs stored " +
              std::to_string(stored) + ")" + tag);
        }
        obs::GetCounter("io.shuffle_blobs_read").Add(1);
        obs::GetCounter("io.shuffle_bytes_read").Add(bytes.size());
        bytes.resize(payload_size);
        return bytes;
      });
}

bool ShuffleStore::BlobExists(const std::string& name) const {
  return std::filesystem::exists(std::filesystem::path(directory_) / name);
}

Status ShuffleStore::CommitTask(const std::string& phase, int task,
                                int attempt,
                                const std::vector<std::string>& blobs,
                                std::uint64_t records) const {
  const std::string path = CommitPath(phase, task);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create phase directory for '" + path +
                           "': " + ec.message());
  }
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "shuffle_store.commit", [&]() -> Status {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("shuffle_store.commit"));
        return robust::AtomicWriteFile(
            path, [&](const std::string& tmp) -> Status {
              std::ofstream out(tmp);
              if (!out) {
                return Status::IOError("cannot write commit '" + tmp + "'");
              }
              out << "m2td-shuffle-commit 2\n";
              out << "attempt " << attempt << "\n";
              out << "records " << records << "\n";
              out << "blobs " << blobs.size() << "\n";
              for (const std::string& blob : blobs) out << blob << "\n";
              out.flush();
              if (!out) return Status::IOError("commit write failed");
              return Status::OK();
            });
      });
}

Result<ShuffleStore::TaskCommit> ShuffleStore::ReadCommit(
    const std::string& phase, int task) const {
  const std::string path = CommitPath(phase, task);
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("no commit for " + phase + " task " +
                            std::to_string(task));
  }
  std::string magic, token;
  int version = 0;
  if (!(in >> magic >> version) || magic != "m2td-shuffle-commit" ||
      version != 2) {
    return Status::IOError("malformed commit '" + path + "'");
  }
  TaskCommit commit;
  std::size_t count = 0;
  if (!(in >> token >> commit.attempt) || token != "attempt" ||
      commit.attempt < 0) {
    return Status::IOError("malformed commit '" + path + "': attempt");
  }
  if (!(in >> token >> commit.records) || token != "records") {
    return Status::IOError("malformed commit '" + path + "': records");
  }
  if (!(in >> token >> count) || token != "blobs") {
    return Status::IOError("malformed commit '" + path + "': blobs");
  }
  commit.blobs.resize(count);
  for (std::string& blob : commit.blobs) {
    if (!(in >> blob)) {
      return Status::IOError("malformed commit '" + path + "': blob name");
    }
  }
  return commit;
}

Status ShuffleStore::ClearCommit(const std::string& phase, int task) const {
  std::error_code ec;
  std::filesystem::remove(CommitPath(phase, task), ec);
  if (ec) {
    return Status::IOError("cannot clear commit for " + phase + " task " +
                           std::to_string(task) + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::size_t> ShuffleStore::CollectOrphans(const std::string& phase,
                                                 int task) const {
  int committed = -1;
  Result<TaskCommit> commit = ReadCommit(phase, task);
  if (commit.ok()) {
    committed = commit->attempt;
  } else if (commit.status().code() != StatusCode::kNotFound) {
    return commit.status();
  }
  const std::filesystem::path task_dir =
      std::filesystem::path(directory_) / phase /
      ("task" + std::to_string(task));
  std::error_code ec;
  if (!std::filesystem::is_directory(task_dir, ec)) return std::size_t{0};
  std::size_t removed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(task_dir, ec)) {
    if (ec) break;
    const std::string leaf = entry.path().filename().string();
    if (leaf.size() < 2 || leaf[0] != 'a') continue;
    if (leaf == "a" + std::to_string(committed)) continue;
    std::error_code remove_ec;
    std::filesystem::remove_all(entry.path(), remove_ec);
    if (!remove_ec) ++removed;
  }
  obs::GetCounter("io.shuffle_orphans_removed").Add(removed);
  return removed;
}

}  // namespace m2td::io
