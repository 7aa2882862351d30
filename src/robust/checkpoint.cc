#include "robust/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"

namespace m2td::robust {

namespace {

constexpr char kJournalName[] = "journal.m2td";
constexpr char kJournalMagic[] = "m2td-journal";

}  // namespace

std::string CheckpointJournal::JournalPath() const {
  return (std::filesystem::path(directory_) / kJournalName).string();
}

std::string CheckpointJournal::ArtifactPath(const std::string& name) const {
  return (std::filesystem::path(directory_) / name).string();
}

Status CheckpointJournal::Wipe(const std::string& directory) {
  std::error_code ec;
  if (!std::filesystem::exists(directory, ec)) return Status::OK();
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    std::error_code remove_ec;
    std::filesystem::remove_all(entry.path(), remove_ec);
    if (remove_ec) {
      return Status::IOError("cannot wipe checkpoint entry '" +
                             entry.path().string() +
                             "': " + remove_ec.message());
    }
  }
  if (ec) {
    return Status::IOError("cannot list checkpoint directory '" + directory +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<CheckpointJournal> CheckpointJournal::Open(
    const std::string& directory, const std::string& fingerprint,
    bool resume) {
  if (fingerprint.empty() ||
      fingerprint.find_first_of(" \t\n\r") != std::string::npos) {
    return Status::InvalidArgument(
        "journal fingerprint must be a non-empty whitespace-free token");
  }
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory '" +
                           directory + "': " + ec.message());
  }
  CheckpointJournal journal(directory, fingerprint);
  const std::string path = journal.JournalPath();

  if (!resume) {
    M2TD_RETURN_IF_ERROR(Wipe(directory));
  }

  if (std::filesystem::exists(path)) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return Status::IOError("cannot open journal '" + path + "'");
    std::ostringstream raw;
    raw << file.rdbuf();
    std::string content = std::move(raw).str();
    // A crash mid-append leaves a final line with no newline; everything
    // after the last newline is that torn line — drop it (its mark never
    // became durable, and its artifact may not exist).
    const std::size_t last_newline = content.find_last_of('\n');
    content.resize(last_newline == std::string::npos ? 0
                                                     : last_newline + 1);
    std::istringstream in(content);
    std::string line;
    bool header_ok = false;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      std::istringstream fields(line);
      std::string token;
      if (!(fields >> token)) continue;  // blank line
      if (line_no == 1) {
        int version = 0;
        if (token != kJournalMagic || !(fields >> version) || version != 1) {
          return Status::DataLoss("journal '" + path +
                                  "' has a bad header line");
        }
        continue;
      }
      if (line_no == 2) {
        std::string stored;
        if (token != "fingerprint" || !(fields >> stored)) {
          return Status::DataLoss("journal '" + path +
                                  "' is missing its fingerprint");
        }
        if (stored != fingerprint) {
          return Status::InvalidArgument(
              "checkpoint fingerprint mismatch in '" + path + "': journal '" +
              stored + "' vs run '" + fingerprint +
              "' — pass resume=false (or a fresh directory) to discard it");
        }
        header_ok = true;
        continue;
      }
      // Torn final line (no trailing newline survived the crash): getline
      // still yields it, so validate the shape and drop anything odd.
      if (token != "mark") continue;
      std::string key;
      if (fields >> key) journal.marks_.insert(key);
    }
    if (!header_ok) {
      return Status::DataLoss("journal '" + path + "' has no valid header");
    }
    // A torn *mark* line is indistinguishable from a complete one only if
    // the newline made it to disk; conservatively keep whatever parsed.
    return journal;
  }

  std::ofstream out(path, std::ios::app);
  if (!out) return Status::IOError("cannot create journal '" + path + "'");
  out << kJournalMagic << " 1\n"
      << "fingerprint " << fingerprint << "\n";
  out.flush();
  if (!out) return Status::IOError("cannot write journal header to '" + path +
                                   "'");
  return journal;
}

Status CheckpointJournal::Mark(const std::string& key) {
  if (key.empty() || key.find_first_of(" \t\n\r") != std::string::npos) {
    return Status::InvalidArgument(
        "journal keys must be non-empty whitespace-free tokens");
  }
  std::ofstream out(JournalPath(), std::ios::app);
  if (!out) {
    return Status::IOError("cannot append to journal '" + JournalPath() +
                           "'");
  }
  out << "mark " << key << "\n";
  out.flush();
  if (!out) {
    return Status::IOError("journal append failed for '" + JournalPath() +
                           "'");
  }
  marks_.insert(key);
  obs::GetCounter("robust.checkpoint_marks").Add(1);
  return Status::OK();
}

}  // namespace m2td::robust
