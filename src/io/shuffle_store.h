#ifndef M2TD_IO_SHUFFLE_STORE_H_
#define M2TD_IO_SHUFFLE_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace m2td::io {

/// \brief Durable shuffle store for the multi-process MapReduce
/// (D-M2TD process backend): one segmented file per task output.
///
/// A segmented file is a fixed header followed by its segments back to
/// back. The header (all fields little-endian) is
///
///     u64 magic "M2TDSEG1" | u32 version | u32 attempt | u64 records
///     u32 segment count
///     per segment: u64 offset | u64 length | u32 CRC-32 of its bytes
///     u32 CRC-32 of every header byte before it
///
/// Readers open the file once, validate the header (its CRC, and that
/// the segments tile the rest of the file exactly), and `pread` only the
/// segment they need, whose CRC is checked too. Any mismatch is DataLoss
/// (never retried) whose message names the file path and a
/// caller-supplied phase/task context, so the coordinator can re-execute
/// the producing task instead of retrying the poisoned bytes.
///
/// Task outputs are attempt-scoped: attempt `a` of task `t` in phase `p`
/// writes `p/task<t>.a<a>.tmp` (WriteAttempt), and its rename onto
/// `p/task<t>` is the commit (CommitAttempt). A SIGKILL therefore loses
/// at most one uncommitted `.tmp`, which CollectOrphans removes. Because
/// tasks are deterministic, racing commits of different attempts are
/// equivalent — last rename wins, and a reader holding the replaced
/// file's descriptor keeps reading a consistent snapshot of it.
class ShuffleStore {
 public:
  /// On-disk header sizes: the fixed fields, one segment-table entry,
  /// and the header CRC.
  static constexpr std::uint64_t kHeaderPrefixBytes = 28;
  static constexpr std::uint64_t kSegmentEntryBytes = 20;
  static constexpr std::uint64_t kHeaderCrcBytes = 4;

  /// Header bytes of a file with `segments` segments (the offset of its
  /// first segment).
  static constexpr std::uint64_t HeaderBytes(std::uint64_t segments) {
    return kHeaderPrefixBytes + kSegmentEntryBytes * segments +
           kHeaderCrcBytes;
  }

  /// Produces segment `i` of a file being written. Called once per
  /// segment in ascending order — from 0 again when the write is retried
  /// — so a producer can encode each segment just before it is written.
  using SegmentSource = std::function<std::string(std::size_t i)>;

  /// A validated file header.
  struct FileHeader {
    struct Segment {
      std::uint64_t offset = 0;
      std::uint64_t length = 0;
      std::uint32_t crc = 0;
    };
    int attempt = 0;
    /// Output records its writer declared, so readers can total a
    /// phase's outputs without decoding them.
    std::uint64_t records = 0;
    std::vector<Segment> segments;
  };

  /// Creates (or reopens) the store rooted at `directory`.
  static Result<ShuffleStore> Create(const std::string& directory);

  const std::string& directory() const { return directory_; }

  /// "<phase>/task<task>": the committed file of a task.
  static std::string TaskFileName(const std::string& phase, int task);

  /// Durably writes a `segments`-segment file at `name` (relative path;
  /// parent directories are created) through a temp file and a rename.
  /// Retried per the global policy. For job inputs, which have no
  /// attempts.
  Status WriteFile(const std::string& name, std::size_t segments,
                   const SegmentSource& source) const;

  /// Writes attempt `attempt` of task `task` in `phase`, declaring
  /// `records` output records, to its private temp file. Invisible to
  /// readers until CommitAttempt. Retried per the global policy.
  Status WriteAttempt(const std::string& phase, int task, int attempt,
                      std::size_t segments, const SegmentSource& source,
                      std::uint64_t records = 0) const;

  /// Commits a written attempt: renames its temp file onto
  /// TaskFileName(phase, task), atomically replacing any earlier commit.
  Status CommitAttempt(const std::string& phase, int task,
                       int attempt) const;

  /// Validates and returns the header of file `name`. NotFound when the
  /// file does not exist (a task that never committed). `context` (e.g.
  /// "p2map:3") is embedded in error messages as `[task <context>]` so
  /// DataLoss is attributable to the producing phase/task.
  Result<FileHeader> ReadHeader(const std::string& name,
                                const std::string& context) const;

  /// Returns segment `segment` of file `name`, CRC-checked, reading only
  /// the header and that segment. Errors as ReadHeader.
  Result<std::string> ReadSegment(const std::string& name,
                                  std::size_t segment,
                                  const std::string& context) const;

  /// Deletes the uncommitted attempt temp files of `phase`/`task`
  /// (attempts killed or failed before their commit) and returns how
  /// many were removed. The committed file is kept.
  Result<std::size_t> CollectOrphans(const std::string& phase,
                                     int task) const;

 private:
  explicit ShuffleStore(std::string directory)
      : directory_(std::move(directory)) {}

  std::string Path(const std::string& name) const;

  std::string directory_;
};

}  // namespace m2td::io

#endif  // M2TD_IO_SHUFFLE_STORE_H_
