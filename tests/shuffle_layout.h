#ifndef M2TD_TESTS_SHUFFLE_LAYOUT_H_
#define M2TD_TESTS_SHUFFLE_LAYOUT_H_

// Locates bytes inside the committed task files of an io::ShuffleStore,
// for tests that rot one shuffle segment on disk and expect the reader of
// exactly that segment to notice.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "io/shuffle_store.h"

namespace m2td {

/// One byte of one committed task file.
struct FileByte {
  std::string path;
  std::uint64_t offset = 0;
};

/// A byte inside the payload of the first non-empty segment of the
/// lowest-numbered committed task file of `phase` under `job_dir` — the
/// header is never touched, so flipping it fails that segment's CRC
/// alone. nullopt when no committed file of `phase` has a non-empty
/// segment.
inline std::optional<FileByte> FirstSegmentPayloadByte(
    const std::string& job_dir, const std::string& phase) {
  auto store = io::ShuffleStore::Create(job_dir);
  if (!store.ok()) return std::nullopt;
  for (int task = 0;; ++task) {
    const std::string name = io::ShuffleStore::TaskFileName(phase, task);
    auto header = store->ReadHeader(name, phase + ":" + std::to_string(task));
    if (!header.ok()) return std::nullopt;
    for (const auto& segment : header->segments) {
      if (segment.length == 0) continue;
      return FileByte{job_dir + "/" + name,
                      segment.offset +
                          std::min<std::uint64_t>(6, segment.length - 1)};
    }
  }
}

/// Inverts every bit of the byte at `at`; false when the file cannot be
/// opened.
inline bool FlipByte(const FileByte& at) {
  std::fstream file(at.path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file.is_open()) return false;
  file.seekg(static_cast<std::streamoff>(at.offset));
  const char byte = static_cast<char>(file.get());
  file.seekp(static_cast<std::streamoff>(at.offset));
  file.put(static_cast<char>(byte ^ 0xff));
  return static_cast<bool>(file);
}

}  // namespace m2td

#endif  // M2TD_TESTS_SHUFFLE_LAYOUT_H_
