#ifndef M2TD_IO_CHUNK_STORE_H_
#define M2TD_IO_CHUNK_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.h"
#include "util/result.h"
#include "util/status.h"

namespace m2td::io {

/// \brief Block-partitioned on-disk store for sparse tensors, after the
/// chunk-based layout of TensorDB (paper references [17], [22]).
///
/// The logical index space is divided into a regular grid of
/// hyper-rectangular chunks (`chunk_shape` cells per mode). Each non-empty
/// chunk's entries live in their own binary blob under the store
/// directory; a text manifest records the tensor shape, the chunk shape,
/// and the non-empty chunk list. Reads can therefore touch only the chunks
/// overlapping a region — the access pattern block-based tensor systems
/// rely on for out-of-core mode products.
///
/// Concurrency: a store is single-writer; readers may share.
class ChunkStore {
 public:
  /// Creates a new store directory (must not already contain a manifest).
  /// `chunk_shape` must have the tensor's arity with positive extents.
  static Result<ChunkStore> Create(const std::string& directory,
                                   std::vector<std::uint64_t> shape,
                                   std::vector<std::uint64_t> chunk_shape);

  /// Opens an existing store by reading its manifest.
  static Result<ChunkStore> Open(const std::string& directory);

  const std::vector<std::uint64_t>& shape() const { return shape_; }
  const std::vector<std::uint64_t>& chunk_shape() const {
    return chunk_shape_;
  }
  /// Number of non-empty chunks currently stored.
  std::size_t NumChunks() const { return chunks_.size(); }
  /// Total stored entries across chunks.
  std::uint64_t TotalNonZeros() const;

  /// Distributes the tensor's entries across chunks and writes every
  /// non-empty chunk blob plus the manifest. Replaces existing content.
  /// The tensor's shape must match the store's.
  Status Write(const tensor::SparseTensor& x);

  /// Reads the chunk at grid position `chunk_index` (one coordinate per
  /// mode). Returns a tensor with the *full* logical shape containing only
  /// that chunk's entries; an empty tensor if the chunk has no entries.
  Result<tensor::SparseTensor> ReadChunk(
      const std::vector<std::uint64_t>& chunk_index) const;

  /// Reads the entire tensor back (union of all chunks), coalesced.
  Result<tensor::SparseTensor> ReadAll() const;

  /// Reads all entries with lo[m] <= index[m] < hi[m], touching only the
  /// chunks overlapping the region.
  Result<tensor::SparseTensor> ReadRegion(
      const std::vector<std::uint64_t>& lo,
      const std::vector<std::uint64_t>& hi) const;

  /// Grid extent (number of chunk slots) along each mode.
  std::vector<std::uint64_t> ChunkGrid() const;

 private:
  ChunkStore(std::string directory, std::vector<std::uint64_t> shape,
             std::vector<std::uint64_t> chunk_shape)
      : directory_(std::move(directory)),
        shape_(std::move(shape)),
        chunk_shape_(std::move(chunk_shape)) {}

  std::uint64_t ChunkIdOf(const std::vector<std::uint64_t>& chunk_index) const;
  std::string ChunkPath(std::uint64_t chunk_id) const;
  Status WriteManifest() const;

  std::string directory_;
  std::vector<std::uint64_t> shape_;
  std::vector<std::uint64_t> chunk_shape_;
  /// chunk id -> stored nnz.
  std::map<std::uint64_t, std::uint64_t> chunks_;
};

/// \brief Durable byte-blob store for the multi-process MapReduce
/// shuffle (D-M2TD process backend).
///
/// Every blob is written temp-then-rename with the same CRC-32 footer as
/// chunk blobs and verified on read; a mismatch is DataLoss (never
/// retried) whose message names both the blob path and a caller-supplied
/// phase/task context, so the coordinator can re-execute the producing
/// map task instead of retrying the poisoned bytes.
///
/// Task outputs are attempt-scoped: attempt `a` of task `t` in phase `p`
/// writes blobs under `p/task<t>/a<a>/` and then commits atomically via
/// CommitTask (a renamed manifest naming the attempt and its blobs).
/// Re-executed attempts never overwrite a committed attempt's bytes;
/// stale attempt directories are removed by CollectOrphans. Because
/// tasks are deterministic, racing commits of different attempts are
/// equivalent — last rename wins and either attempt's blobs decode to
/// the same records.
class ShuffleStore {
 public:
  /// Creates (or reopens) the store rooted at `directory`.
  static Result<ShuffleStore> Create(const std::string& directory);

  const std::string& directory() const { return directory_; }

  /// Durably writes `payload` + CRC-32 footer at `name` (relative path;
  /// parent directories are created). Retried per the global policy.
  Status WriteBlob(const std::string& name, const std::string& payload)
      const;

  /// Verifies the footer and returns the payload. `context` (e.g.
  /// "p2map:3") is embedded in error messages as `[task <context>]` so
  /// DataLoss is attributable to the producing phase/task.
  Result<std::string> ReadBlob(const std::string& name,
                               const std::string& context) const;

  bool BlobExists(const std::string& name) const;

  /// Committed outcome of one task: the winning attempt, the blob names
  /// (relative to the store root) it wrote, and the record count its
  /// writer declared (so readers can total outputs without decoding).
  struct TaskCommit {
    int attempt = -1;
    std::vector<std::string> blobs;
    std::uint64_t records = 0;
  };

  /// Atomically records attempt `attempt` as the committed outcome of
  /// task `task` in `phase`, with `records` output records. Blobs must
  /// already be durably written.
  Status CommitTask(const std::string& phase, int task, int attempt,
                    const std::vector<std::string>& blobs,
                    std::uint64_t records = 0) const;

  /// Reads the committed outcome; NotFound when the task never
  /// committed (or its commit was cleared for re-execution).
  Result<TaskCommit> ReadCommit(const std::string& phase, int task) const;

  /// Removes the commit record (the blobs stay until CollectOrphans),
  /// forcing the next ReadCommit to see the task as never-run. Note
  /// the coordinator recovers corrupted outputs by re-committing a
  /// fresh attempt over the stale commit instead (concurrent readers
  /// must never observe a missing commit); this is for tooling that
  /// wants to retire a task outright.
  Status ClearCommit(const std::string& phase, int task) const;

  /// Deletes attempt directories of `phase`/`task` other than the
  /// committed attempt (every attempt when nothing is committed).
  /// Returns the number of orphan attempt directories removed.
  Result<std::size_t> CollectOrphans(const std::string& phase,
                                     int task) const;

  /// "<phase>/task<task>/a<attempt>/<leaf>": the canonical attempt-scoped
  /// blob name used by the distributed tasks.
  static std::string BlobName(const std::string& phase, int task,
                              int attempt, const std::string& leaf);

 private:
  explicit ShuffleStore(std::string directory)
      : directory_(std::move(directory)) {}

  std::string CommitPath(const std::string& phase, int task) const;

  std::string directory_;
};

}  // namespace m2td::io

#endif  // M2TD_IO_CHUNK_STORE_H_
