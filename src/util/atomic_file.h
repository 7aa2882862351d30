#ifndef M2TD_UTIL_ATOMIC_FILE_H_
#define M2TD_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <string>

#include "util/status.h"

namespace m2td::util {

/// \brief Crash-consistent file replacement: `writer` produces the new
/// content at a temporary sibling path (`<path>.tmp`), which is then
/// renamed over `path`. POSIX rename is atomic within a filesystem, so a
/// crash at any point leaves either the complete old file or the complete
/// new file — never a torn mixture. The temporary is removed on writer
/// failure.
///
/// This is the one commit point of every whole-file write: the shuffle
/// store's input files, the D-M2TD job config, the ensemble checkpoint
/// artifacts and every obs artifact writer (Chrome traces, run reports,
/// OpenMetrics snapshots), so a SIGKILL mid-write never leaves a torn
/// file on disk.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(const std::string&)>&
                           writer);

/// The temporary sibling AtomicWriteFile uses (exposed so cleanup sweeps
/// and tests can look for strays).
std::string TempPathFor(const std::string& path);

}  // namespace m2td::util

#endif  // M2TD_UTIL_ATOMIC_FILE_H_
