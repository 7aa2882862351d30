#include "io/shuffle_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "robust/crc32.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "util/atomic_file.h"

namespace m2td::io {

namespace {

constexpr std::uint64_t kSegmentedMagic = 0x314745534454324dULL;  // "M2TDSEG1"
constexpr std::uint32_t kSegmentedVersion = 1;

/// Closes a file descriptor on scope exit.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }
  void Reset(int fd) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }
  /// Closes now, reporting a failed close (a lost deferred write).
  bool Close() {
    const int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0;
  }

 private:
  int fd_;
};

bool PwriteAll(int fd, const char* data, std::size_t size,
               std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Reads exactly `size` bytes at `offset`; false on an error or EOF.
bool PreadAll(int fd, char* data, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

template <typename T>
void PutLe(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T GetLe(const char* data) {
  T v;
  std::memcpy(&v, data, sizeof(v));
  return v;
}

/// Writes the segments `source` produces after a reserved header, then
/// the header itself, to a fresh file at `path`. Each segment is freed
/// once written, so at most one encoded segment is in memory.
Status WriteSegmentedFile(const std::string& path, int attempt,
                          std::uint64_t records, std::size_t segments,
                          const ShuffleStore::SegmentSource& source) {
  if (segments > UINT32_MAX) {
    return Status::InvalidArgument("shuffle file '" + path + "' cannot hold " +
                                   std::to_string(segments) + " segments");
  }
  ScopedFd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0644));
  if (fd.get() < 0) {
    return Status::IOError("cannot create shuffle file '" + path +
                           "': " + std::strerror(errno));
  }
  const std::uint64_t header_bytes = ShuffleStore::HeaderBytes(segments);
  std::string header;
  header.reserve(header_bytes);
  PutLe<std::uint64_t>(&header, kSegmentedMagic);
  PutLe<std::uint32_t>(&header, kSegmentedVersion);
  PutLe<std::uint32_t>(&header, static_cast<std::uint32_t>(attempt));
  PutLe<std::uint64_t>(&header, records);
  PutLe<std::uint32_t>(&header, static_cast<std::uint32_t>(segments));
  std::uint64_t offset = header_bytes;
  for (std::size_t i = 0; i < segments; ++i) {
    const std::string segment = source(i);
    if (!PwriteAll(fd.get(), segment.data(), segment.size(), offset)) {
      return Status::IOError("shuffle file write failed for '" + path +
                             "': " + std::strerror(errno));
    }
    PutLe<std::uint64_t>(&header, offset);
    PutLe<std::uint64_t>(&header, segment.size());
    PutLe<std::uint32_t>(&header,
                         robust::Crc32(segment.data(), segment.size()));
    offset += segment.size();
  }
  PutLe<std::uint32_t>(&header, robust::Crc32(header.data(), header.size()));
  if (!PwriteAll(fd.get(), header.data(), header.size(), 0) || !fd.Close()) {
    return Status::IOError("shuffle file write failed for '" + path +
                           "': " + std::strerror(errno));
  }
  obs::GetCounter("io.shuffle_blobs_written").Add(segments);
  obs::GetCounter("io.shuffle_bytes_written").Add(offset);
  return Status::OK();
}

/// Validates the header of the open file `fd` (`size` bytes). Every
/// length is checked against the file size before it sizes anything,
/// and every mismatch is DataLoss naming `path` and carrying `tag`.
Result<ShuffleStore::FileHeader> ReadSegmentedHeader(int fd,
                                                     std::uint64_t size,
                                                     const std::string& path,
                                                     const std::string& tag) {
  auto corrupt = [&](const std::string& what) {
    obs::GetCounter("io.crc_failures").Add(1);
    return Status::DataLoss("shuffle file '" + path + "' " + what + tag);
  };
  constexpr std::uint64_t kMinBytes = ShuffleStore::HeaderBytes(0);
  if (size < kMinBytes) {
    return corrupt("is truncated: " + std::to_string(size) +
                   " bytes cannot hold a header");
  }
  char prefix[ShuffleStore::kHeaderPrefixBytes];
  if (!PreadAll(fd, prefix, sizeof(prefix), 0)) {
    return Status::IOError("cannot read shuffle file '" + path + "'" + tag);
  }
  if (GetLe<std::uint64_t>(prefix) != kSegmentedMagic) {
    return corrupt("has a corrupt header (bad magic)");
  }
  if (GetLe<std::uint32_t>(prefix + 8) != kSegmentedVersion) {
    return corrupt("has unsupported version " +
                   std::to_string(GetLe<std::uint32_t>(prefix + 8)));
  }
  const std::uint32_t count = GetLe<std::uint32_t>(prefix + 24);
  if (count > (size - kMinBytes) / ShuffleStore::kSegmentEntryBytes) {
    return corrupt("declares " + std::to_string(count) +
                   " segments, more than its " + std::to_string(size) +
                   " bytes can index");
  }
  const std::uint64_t header_bytes = ShuffleStore::HeaderBytes(count);
  std::string table(header_bytes - sizeof(prefix), '\0');
  if (!PreadAll(fd, table.data(), table.size(), sizeof(prefix))) {
    return Status::IOError("cannot read shuffle file '" + path + "'" + tag);
  }
  const std::size_t table_bytes = table.size() - ShuffleStore::kHeaderCrcBytes;
  const std::uint32_t crc = robust::Crc32(
      table.data(), table_bytes, robust::Crc32(prefix, sizeof(prefix)));
  if (crc != GetLe<std::uint32_t>(table.data() + table_bytes)) {
    return corrupt("failed its header CRC-32 check");
  }
  ShuffleStore::FileHeader header;
  header.attempt = static_cast<int>(GetLe<std::uint32_t>(prefix + 12));
  header.records = GetLe<std::uint64_t>(prefix + 16);
  header.segments.resize(count);
  // The segments must tile [header_bytes, size) in order; `expected`
  // never exceeds `size`, so no sum below can wrap.
  std::uint64_t expected = header_bytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* entry = table.data() + i * ShuffleStore::kSegmentEntryBytes;
    ShuffleStore::FileHeader::Segment& segment = header.segments[i];
    segment.offset = GetLe<std::uint64_t>(entry);
    segment.length = GetLe<std::uint64_t>(entry + 8);
    segment.crc = GetLe<std::uint32_t>(entry + 16);
    if (segment.offset != expected) {
      return corrupt("segment " + std::to_string(i) + " starts at " +
                     std::to_string(segment.offset) + ", not at " +
                     std::to_string(expected));
    }
    if (segment.length > size - segment.offset) {
      return corrupt("segment " + std::to_string(i) + " (" +
                     std::to_string(segment.length) + " bytes at " +
                     std::to_string(segment.offset) +
                     ") runs past end of file at " + std::to_string(size));
    }
    expected += segment.length;
  }
  if (expected != size) {
    return corrupt("has " + std::to_string(size - expected) +
                   " bytes past its last segment");
  }
  obs::GetCounter("io.shuffle_bytes_read").Add(header_bytes);
  return header;
}

/// Opens `path` for reading; NotFound when it does not exist.
Result<std::uint64_t> OpenForRead(const std::string& path,
                                  const std::string& tag, ScopedFd* fd) {
  fd->Reset(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd->get() < 0) {
    const int err = errno;
    if (err == ENOENT) {
      return Status::NotFound("no shuffle file '" + path + "'" + tag);
    }
    return Status::IOError("cannot open shuffle file '" + path +
                           "': " + std::strerror(err) + tag);
  }
  struct stat st;
  if (::fstat(fd->get(), &st) != 0) {
    return Status::IOError("cannot stat shuffle file '" + path + "'" + tag);
  }
  return static_cast<std::uint64_t>(st.st_size);
}

std::string AttemptTempName(const std::string& phase, int task,
                            int attempt) {
  return ShuffleStore::TaskFileName(phase, task) + ".a" +
         std::to_string(attempt) + ".tmp";
}

}  // namespace

Result<ShuffleStore> ShuffleStore::Create(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create shuffle directory '" + directory +
                           "': " + ec.message());
  }
  return ShuffleStore(directory);
}

std::string ShuffleStore::TaskFileName(const std::string& phase, int task) {
  return phase + "/task" + std::to_string(task);
}

std::string ShuffleStore::Path(const std::string& name) const {
  return directory_ + "/" + name;
}

Status ShuffleStore::WriteFile(const std::string& name, std::size_t segments,
                               const SegmentSource& source) const {
  const std::string path = Path(name);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (ec) {
    return Status::IOError("cannot create directory for '" + path +
                           "': " + ec.message());
  }
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "shuffle_store.write_blob",
      [&]() -> Status {
        M2TD_RETURN_IF_ERROR(
            robust::CheckFailpoint("shuffle_store.write_blob"));
        return util::AtomicWriteFile(path, [&](const std::string& tmp) {
          return WriteSegmentedFile(tmp, 0, 0, segments, source);
        });
      });
}

Status ShuffleStore::WriteAttempt(const std::string& phase, int task,
                                  int attempt, std::size_t segments,
                                  const SegmentSource& source,
                                  std::uint64_t records) const {
  std::error_code ec;
  std::filesystem::create_directories(Path(phase), ec);
  if (ec) {
    return Status::IOError("cannot create phase directory '" + Path(phase) +
                           "': " + ec.message());
  }
  const std::string tmp = Path(AttemptTempName(phase, task, attempt));
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "shuffle_store.write_blob",
      [&]() -> Status {
        M2TD_RETURN_IF_ERROR(
            robust::CheckFailpoint("shuffle_store.write_blob"));
        Status written =
            WriteSegmentedFile(tmp, attempt, records, segments, source);
        if (!written.ok()) ::unlink(tmp.c_str());
        return written;
      });
}

Status ShuffleStore::CommitAttempt(const std::string& phase, int task,
                                   int attempt) const {
  const std::string tmp = Path(AttemptTempName(phase, task, attempt));
  const std::string path = Path(TaskFileName(phase, task));
  return robust::RetryStatusCall(
      robust::GlobalRetryPolicy(), "shuffle_store.commit", [&]() -> Status {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("shuffle_store.commit"));
        if (::rename(tmp.c_str(), path.c_str()) != 0) {
          const int err = errno;
          const std::string message = "cannot commit '" + tmp + "' as '" +
                                      path + "': " + std::strerror(err);
          return err == ENOENT ? Status::NotFound(message)
                               : Status::IOError(message);
        }
        return Status::OK();
      });
}

Result<ShuffleStore::FileHeader> ShuffleStore::ReadHeader(
    const std::string& name, const std::string& context) const {
  const std::string path = Path(name);
  const std::string tag = " [task " + context + "]";
  return robust::RetryCall<FileHeader>(
      robust::GlobalRetryPolicy(), "shuffle_store.read_blob",
      [&]() -> Result<FileHeader> {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("shuffle_store.read_blob"));
        ScopedFd fd(-1);
        M2TD_ASSIGN_OR_RETURN(std::uint64_t size,
                              OpenForRead(path, tag, &fd));
        return ReadSegmentedHeader(fd.get(), size, path, tag);
      });
}

Result<std::string> ShuffleStore::ReadSegment(
    const std::string& name, std::size_t segment,
    const std::string& context) const {
  const std::string path = Path(name);
  const std::string tag = " [task " + context + "]";
  return robust::RetryCall<std::string>(
      robust::GlobalRetryPolicy(), "shuffle_store.read_blob",
      [&]() -> Result<std::string> {
        M2TD_RETURN_IF_ERROR(robust::CheckFailpoint("shuffle_store.read_blob"));
        // One descriptor for header and segment: a commit renamed over
        // `path` meanwhile cannot mix two attempts' bytes.
        ScopedFd fd(-1);
        M2TD_ASSIGN_OR_RETURN(std::uint64_t size,
                              OpenForRead(path, tag, &fd));
        M2TD_ASSIGN_OR_RETURN(FileHeader header,
                              ReadSegmentedHeader(fd.get(), size, path, tag));
        if (segment >= header.segments.size()) {
          return Status::InvalidArgument(
              "shuffle file '" + path + "' has " +
              std::to_string(header.segments.size()) + " segments, segment " +
              std::to_string(segment) + " requested" + tag);
        }
        const FileHeader::Segment& entry = header.segments[segment];
        std::string bytes(static_cast<std::size_t>(entry.length), '\0');
        if (!PreadAll(fd.get(), bytes.data(), bytes.size(), entry.offset)) {
          return Status::IOError("cannot read shuffle file '" + path + "'" +
                                 tag);
        }
        const std::uint32_t actual = robust::Crc32(bytes.data(), bytes.size());
        if (actual != entry.crc) {
          obs::GetCounter("io.crc_failures").Add(1);
          return Status::DataLoss(
              "shuffle file '" + path + "' segment " +
              std::to_string(segment) + " failed its CRC-32 check (" +
              std::to_string(actual) + " vs stored " +
              std::to_string(entry.crc) + ")" + tag);
        }
        obs::GetCounter("io.shuffle_blobs_read").Add(1);
        obs::GetCounter("io.shuffle_bytes_read").Add(bytes.size());
        return bytes;
      });
}

Result<std::size_t> ShuffleStore::CollectOrphans(const std::string& phase,
                                                 int task) const {
  const std::string prefix = "task" + std::to_string(task) + ".a";
  std::error_code ec;
  if (!std::filesystem::is_directory(Path(phase), ec)) return std::size_t{0};
  std::size_t removed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(Path(phase), ec)) {
    const std::string leaf = entry.path().filename().string();
    if (leaf.rfind(prefix, 0) != 0 || leaf.size() < prefix.size() + 4 ||
        leaf.compare(leaf.size() - 4, 4, ".tmp") != 0) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) ++removed;
  }
  obs::GetCounter("io.shuffle_orphans_removed").Add(removed);
  return removed;
}

}  // namespace m2td::io
