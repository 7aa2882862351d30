#ifndef M2TD_ROBUST_CHECKPOINT_H_
#define M2TD_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <set>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace m2td::robust {

/// \brief Append-only checkpoint journal for resumable pipelines.
///
/// A journal lives in a checkpoint directory as `journal.m2td`:
///
///   m2td-journal 1
///   fingerprint <token>
///   mark <key>
///   mark <key>
///   ...
///
/// Progress is recorded by appending `mark` lines (flushed per mark); large
/// artifacts (partial cores, completed simulation batches) are written as
/// sibling files via AtomicWriteFile and *then* marked, so a mark's
/// presence implies its artifact is complete. Crash consistency:
/// appending is the only mutation, and the loader silently drops a torn
/// final line, so a journal is readable after a crash at any byte.
///
/// The fingerprint encodes the run configuration (shapes, method, seed,
/// ...). Open() refuses a journal whose fingerprint differs from the
/// caller's — resuming under a different configuration would silently mix
/// incompatible partial results.
class CheckpointJournal {
 public:
  /// Opens (creating the directory and journal as needed). When a journal
  /// already exists its fingerprint must match; pass resume=false to wipe
  /// any existing journal and artifacts and start fresh.
  static Result<CheckpointJournal> Open(const std::string& directory,
                                        const std::string& fingerprint,
                                        bool resume);

  /// Appends and flushes one mark.
  Status Mark(const std::string& key);

  bool Contains(const std::string& key) const {
    return marks_.find(key) != marks_.end();
  }
  std::size_t NumMarks() const { return marks_.size(); }

  const std::string& directory() const { return directory_; }
  /// Path for an artifact file stored next to the journal.
  std::string ArtifactPath(const std::string& name) const;

  /// Removes the journal and every artifact in `directory` (the directory
  /// itself is kept). OK when nothing exists.
  static Status Wipe(const std::string& directory);

 private:
  CheckpointJournal(std::string directory, std::string fingerprint)
      : directory_(std::move(directory)),
        fingerprint_(std::move(fingerprint)) {}

  std::string JournalPath() const;

  std::string directory_;
  std::string fingerprint_;
  std::set<std::string> marks_;
};

}  // namespace m2td::robust

#endif  // M2TD_ROBUST_CHECKPOINT_H_
