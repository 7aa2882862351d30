#include "core/dm2td_tasks.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/failpoint.h"
#include "util/atomic_file.h"

namespace m2td::core::dm2td_tasks {

using dm2td_internal::AllRows;
using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::PartialCore;
using dm2td_internal::Rows;
using dm2td_internal::ShardSlices;

namespace {

// ------------------------------------------------------- binary helpers

void PutU32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked sequential reader over an encoded blob.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  Status U32(std::uint32_t* v) { return Take(v); }
  Status U64(std::uint64_t* v) { return Take(v); }
  Status F64(double* v) { return Take(v); }
  std::size_t Remaining() const { return bytes_.size() - off_; }

  /// OK when `count` items of at least `item_bytes` each can still fit in
  /// the unread bytes — the overflow-safe check every length prefix goes
  /// through before it sizes an allocation.
  Status CheckFits(std::uint64_t count, std::size_t item_bytes,
                   const char* what) const {
    if (count > Remaining() / item_bytes) {
      return Status::IOError(std::string("truncated shuffle record: ") +
                             what + " count " + std::to_string(count) +
                             " exceeds the remaining " +
                             std::to_string(Remaining()) + " bytes");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  Status Take(T* v) {
    if (Remaining() < sizeof(T)) {
      return Status::IOError("truncated shuffle record");
    }
    std::memcpy(v, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return Status::OK();
  }

  const std::string& bytes_;
  std::size_t off_ = 0;
};

/// Reads a rows x cols header and the matrix body that follows it. The
/// element count is checked against the unread bytes without ever forming
/// rows * cols, which a hostile header could overflow.
Status ReadMatrix(ByteReader* reader, const char* what,
                  linalg::Matrix* matrix) {
  std::uint64_t rows = 0, cols = 0;
  M2TD_RETURN_IF_ERROR(reader->U64(&rows));
  M2TD_RETURN_IF_ERROR(reader->U64(&cols));
  if (rows != 0 && cols != 0) {
    M2TD_RETURN_IF_ERROR(reader->CheckFits(rows, sizeof(double), what));
    M2TD_RETURN_IF_ERROR(
        reader->CheckFits(cols, sizeof(double) * rows, what));
  }
  *matrix = linalg::Matrix(static_cast<std::size_t>(rows),
                           static_cast<std::size_t>(cols));
  for (double& v : matrix->mutable_data()) {
    M2TD_RETURN_IF_ERROR(reader->F64(&v));
  }
  return Status::OK();
}

void MaybeChaosSleep() {
  const char* ms = std::getenv(kChaosSleepEnv);
  if (ms == nullptr) return;
  const long parsed = std::strtol(ms, nullptr, 10);
  if (parsed > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(parsed));
  }
}

/// Applies the M2TD_DIST_STRAGGLER knob ("<phase>:<index>:<ms>
/// [:<max_attempt>]") to `task`. Cancel-aware: a fired ambient token ends
/// the sleep early, so a cancelled speculative loser unwinds promptly.
void MaybeStragglerSleep(const TaskRequest& task) {
  const char* spec = std::getenv(kStragglerEnv);
  if (spec == nullptr || *spec == '\0') return;
  std::istringstream in(spec);
  std::string phase, field;
  if (!std::getline(in, phase, ':') || phase != task.phase) return;
  if (!std::getline(in, field, ':') ||
      std::strtol(field.c_str(), nullptr, 10) != task.index) {
    return;
  }
  if (!std::getline(in, field, ':')) return;
  const double ms = std::strtod(field.c_str(), nullptr);
  long max_attempt = 0;
  if (std::getline(in, field, ':')) {
    max_attempt = std::strtol(field.c_str(), nullptr, 10);
  }
  if (task.attempt > max_attempt || ms <= 0) return;
  const robust::CancelToken token = robust::CurrentCancelToken();
  if (token.CanBeCancelled()) {
    token.WaitForMillis(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

/// The job's geometry (the thread backend's, from the same partition).
/// IOError when a mode is out of range or shape1/shape2 are not the
/// partition's sub-tensor shapes, which every slice is decoded against.
Result<JobGeometry> GeometryOf(const DistJobConfig& config) {
  PfPartition partition;
  partition.pivot_modes = config.pivot_modes;
  partition.side1_modes = config.side1_modes;
  partition.side2_modes = config.side2_modes;
  for (int side = 1; side <= 2; ++side) {
    const std::vector<std::size_t> modes = partition.SubTensorModes(side);
    const bool in_range =
        std::all_of(modes.begin(), modes.end(), [&](std::size_t m) {
          return m < config.full_shape.size();
        });
    if (!in_range || dm2td_internal::ModeDims(config.full_shape, modes) !=
                         (side == 1 ? config.shape1 : config.shape2)) {
      return Status::IOError("job config shape" + std::to_string(side) +
                             " disagrees with its partition");
    }
  }
  return dm2td_internal::MakeGeometry(partition, config.full_shape);
}

// --------------------------------------------------------------- stages

/// Writes the task's output file and commits it, with the chaos window
/// between the two.
Status WriteAndCommit(const io::ShuffleStore& store, const TaskRequest& task,
                      std::size_t segments,
                      const io::ShuffleStore::SegmentSource& source,
                      std::uint64_t records) {
  M2TD_RETURN_IF_ERROR(store.WriteAttempt(task.phase, task.index,
                                          task.attempt, segments, source,
                                          records));
  MaybeChaosSleep();
  return store.CommitAttempt(task.phase, task.index, task.attempt);
}

Status RunMapTask(const io::ShuffleStore& store, const DistJobConfig& config,
                  const JobGeometry& geometry, const TaskRequest& task) {
  const int phase = task.phase == "p1map" ? 1 : task.phase == "p2map" ? 2 : 0;
  if (phase == 0) {
    return Status::InvalidArgument("unknown map phase '" + task.phase + "'");
  }
  M2TD_ASSIGN_OR_RETURN(
      std::string bytes,
      store.ReadSegment(kCellsFile, static_cast<std::size_t>(task.index),
                        "input"));
  M2TD_ASSIGN_OR_RETURN(ShardSlices split,
                        DecodeSlices(bytes, config.shape1, config.shape2));
  M2TD_ASSIGN_OR_RETURN(
      std::vector<ShardSlices> routed,
      dm2td_internal::RouteSplit(phase, geometry, split.x1, AllRows(split.x1),
                                 split.x2, AllRows(split.x2),
                                 static_cast<std::size_t>(config.shards)));
  return WriteAndCommit(
      store, task, routed.size(),
      [&](std::size_t r) {
        const ShardSlices& out = routed[r];
        return EncodeSlices(out.x1, AllRows(out.x1), out.x2, AllRows(out.x2));
      },
      split.x1.NumNonZeros() + split.x2.NumNonZeros());
}

/// Reduce task `r`'s input: segment `r` of every committed map task file
/// of `map_phase`, decoded and concatenated in map-task order.
Result<ShardSlices> ReadShardSlices(const io::ShuffleStore& store,
                                    const DistJobConfig& config,
                                    const std::string& map_phase, int r) {
  std::vector<ShardSlices> parts;
  for (int m = 0; m < config.shards; ++m) {
    M2TD_ASSIGN_OR_RETURN(
        std::string bytes,
        store.ReadSegment(io::ShuffleStore::TaskFileName(map_phase, m),
                          static_cast<std::size_t>(r),
                          map_phase + ":" + std::to_string(m)));
    M2TD_ASSIGN_OR_RETURN(ShardSlices part,
                          DecodeSlices(bytes, config.shape1, config.shape2));
    parts.push_back(std::move(part));
  }
  return dm2td_internal::ConcatSlices(std::move(parts));
}

Status RunReduceTask(const io::ShuffleStore& store,
                     const DistJobConfig& config, const JobGeometry& geometry,
                     const TaskRequest& task) {
  const std::string map_phase = MapPhaseOf(task.phase);

  if (task.phase == "p1red") {
    M2TD_ASSIGN_OR_RETURN(ShardSlices input,
                          ReadShardSlices(store, config, map_phase,
                                          task.index));
    std::vector<GramPiece> pieces;
    M2TD_RETURN_IF_ERROR(
        dm2td_internal::ReduceGramGroups(std::move(input), &pieces));
    return WriteAndCommit(
        store, task, 1, [&](std::size_t) { return EncodeGramPieces(pieces); },
        pieces.size());
  }

  if (task.phase != "p2red") {
    return Status::InvalidArgument("unknown reduce phase '" + task.phase +
                                   "'");
  }
  std::vector<linalg::Matrix> factors(geometry.num_modes);
  for (std::size_t n = 0; n < factors.size(); ++n) {
    M2TD_ASSIGN_OR_RETURN(std::string factor_bytes,
                          store.ReadSegment(kFactorsFile, n, "input"));
    M2TD_ASSIGN_OR_RETURN(factors[n], DecodeMatrix(factor_bytes));
  }
  std::vector<std::uint64_t> cand1, cand2;
  if (config.zero_join) {
    M2TD_ASSIGN_OR_RETURN(std::string c1,
                          store.ReadSegment(kCandidatesFile, 0, "input"));
    M2TD_ASSIGN_OR_RETURN(std::string c2,
                          store.ReadSegment(kCandidatesFile, 1, "input"));
    M2TD_ASSIGN_OR_RETURN(cand1, DecodeU64List(c1));
    M2TD_ASSIGN_OR_RETURN(cand2, DecodeU64List(c2));
  }
  M2TD_ASSIGN_OR_RETURN(
      const dm2td_internal::PivotCoreBuilder builder,
      dm2td_internal::PivotCoreBuilder::Create(geometry, factors,
                                               config.zero_join, cand1,
                                               cand2));
  M2TD_ASSIGN_OR_RETURN(
      ShardSlices input,
      ReadShardSlices(store, config, map_phase, task.index));
  std::vector<PartialCore> parts;
  M2TD_RETURN_IF_ERROR(
      dm2td_internal::ReducePivotGroups(builder, geometry, input.x1,
                                        AllRows(input.x1), input.x2,
                                        AllRows(input.x2), &parts));
  return WriteAndCommit(
      store, task, 1, [&](std::size_t) { return EncodePartialCores(parts); },
      parts.size());
}

}  // namespace

// ------------------------------------------------------------ job config

Status SaveJobConfig(const std::string& path, const DistJobConfig& config) {
  return util::AtomicWriteFile(path, [&](const std::string& tmp) -> Status {
    std::ofstream out(tmp);
    if (!out) return Status::IOError("cannot write job config '" + tmp + "'");
    auto write_list = [&out](const char* label, const auto& values) {
      out << label << " " << values.size();
      for (const auto v : values) out << " " << v;
      out << "\n";
    };
    out << "m2td-dist-job 1\n";
    write_list("full_shape", config.full_shape);
    write_list("shape1", config.shape1);
    write_list("shape2", config.shape2);
    write_list("pivot_modes", config.pivot_modes);
    write_list("side1_modes", config.side1_modes);
    write_list("side2_modes", config.side2_modes);
    out << "shards " << config.shards << "\n";
    out << "zero_join " << (config.zero_join ? 1 : 0) << "\n";
    out.flush();
    if (!out) return Status::IOError("job config write failed");
    return Status::OK();
  });
}

Result<DistJobConfig> LoadJobConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open job config '" + path + "'");
  std::string magic, token;
  int version = 0;
  if (!(in >> magic >> version) || magic != "m2td-dist-job" || version != 1) {
    return Status::IOError("malformed job config '" + path + "'");
  }
  DistJobConfig config;
  // The count is untrusted: values are appended one read at a time, so
  // a count past the file's end costs no more memory than the file does.
  auto read_list = [&](const char* label, auto* out) -> Status {
    std::size_t count = 0;
    if (!(in >> token >> count) || token != label) {
      return Status::IOError(std::string("malformed job config: ") + label);
    }
    out->clear();
    while (out->size() < count) {
      typename std::decay_t<decltype(*out)>::value_type v;
      if (!(in >> v)) return Status::IOError("malformed job config value");
      out->push_back(v);
    }
    return Status::OK();
  };
  M2TD_RETURN_IF_ERROR(read_list("full_shape", &config.full_shape));
  M2TD_RETURN_IF_ERROR(read_list("shape1", &config.shape1));
  M2TD_RETURN_IF_ERROR(read_list("shape2", &config.shape2));
  M2TD_RETURN_IF_ERROR(read_list("pivot_modes", &config.pivot_modes));
  M2TD_RETURN_IF_ERROR(read_list("side1_modes", &config.side1_modes));
  M2TD_RETURN_IF_ERROR(read_list("side2_modes", &config.side2_modes));
  int zero_join = 0;
  if (!(in >> token >> config.shards) || token != "shards" ||
      config.shards <= 0) {
    return Status::IOError("malformed job config: shards");
  }
  if (!(in >> token >> zero_join) || token != "zero_join") {
    return Status::IOError("malformed job config: zero_join");
  }
  config.zero_join = zero_join != 0;
  return config;
}

std::string MapPhaseOf(const std::string& reduce_phase) {
  std::string map_phase = reduce_phase;
  const std::size_t pos = map_phase.find("red");
  if (pos != std::string::npos) map_phase.replace(pos, 3, "map");
  return map_phase;
}

Result<std::string> ReadReduceOutput(const io::ShuffleStore& store,
                                     const std::string& phase, int task) {
  return store.ReadSegment(io::ShuffleStore::TaskFileName(phase, task), 0,
                           phase + ":" + std::to_string(task));
}

std::string EncodeTaskFrame(const TaskRequest& task) {
  std::string frame = "task ";
  frame += task.is_map ? "1" : "0";
  frame += " " + task.phase;
  frame += " " + std::to_string(task.index);
  frame += " " + std::to_string(task.attempt);
  return frame;
}

Result<TaskRequest> DecodeTaskFrame(const std::string& frame) {
  std::istringstream in(frame);
  std::string word;
  int is_map = 0;
  TaskRequest task;
  if (!(in >> word >> is_map >> task.phase >> task.index >> task.attempt) ||
      word != "task") {
    return Status::IOError("malformed task frame '" + frame + "'");
  }
  task.is_map = is_map != 0;
  return task;
}

// ---------------------------------------------------------------- codecs

std::string EncodeSlices(const tensor::SparseTensor& x1, Rows rows1,
                         const tensor::SparseTensor& x2, Rows rows2) {
  std::string out;
  auto put = [&out](const auto& column, Rows r) {
    out.append(reinterpret_cast<const char*>(column.data() + r.first),
               (r.second - r.first) * sizeof(column[0]));
  };
  PutU64(&out, rows1.second - rows1.first);
  PutU64(&out, rows2.second - rows2.first);
  for (const auto& [slice, rows] : {std::pair(&x1, rows1), {&x2, rows2}}) {
    for (std::size_t m = 0; m < slice->num_modes(); ++m) {
      put(slice->IndexArray(m), rows);
    }
    put(slice->Values(), rows);
  }
  return out;
}

Result<ShardSlices> DecodeSlices(const std::string& bytes,
                                 const std::vector<std::uint64_t>& shape1,
                                 const std::vector<std::uint64_t>& shape2) {
  ByteReader reader(bytes);
  std::uint64_t rows[2] = {0, 0};
  M2TD_RETURN_IF_ERROR(reader.U64(&rows[0]));
  M2TD_RETURN_IF_ERROR(reader.U64(&rows[1]));
  ShardSlices out;
  for (int s = 0; s < 2; ++s) {
    const std::vector<std::uint64_t>& shape = s == 0 ? shape1 : shape2;
    M2TD_RETURN_IF_ERROR(reader.CheckFits(
        rows[s], shape.size() * sizeof(std::uint32_t) + sizeof(double),
        "slice row"));
    std::vector<std::vector<std::uint32_t>> indices(
        shape.size(), std::vector<std::uint32_t>(rows[s]));
    std::vector<double> values(rows[s]);
    for (std::vector<std::uint32_t>& column : indices) {
      for (std::uint32_t& i : column) M2TD_RETURN_IF_ERROR(reader.U32(&i));
    }
    for (double& v : values) M2TD_RETURN_IF_ERROR(reader.F64(&v));
    Result<tensor::SparseTensor> slice = tensor::SparseTensor::FromArrays(
        shape, std::move(indices), std::move(values));
    if (!slice.ok()) {
      return Status::IOError("bad slice " + std::to_string(s + 1) + ": " +
                             slice.status().message());
    }
    (s == 0 ? out.x1 : out.x2) = std::move(slice).ValueOrDie();
  }
  if (reader.Remaining() != 0) {
    return Status::IOError(std::to_string(reader.Remaining()) +
                           " trailing bytes after the slices");
  }
  return out;
}

std::string EncodePartialCores(const std::vector<PartialCore>& parts) {
  std::size_t size = sizeof(std::uint64_t);
  for (const PartialCore& part : parts) {
    size += 3 * sizeof(std::uint64_t) + part.values.size() * sizeof(double);
  }
  std::string out;
  out.reserve(size);
  PutU64(&out, parts.size());
  for (const PartialCore& part : parts) {
    PutU64(&out, part.pivot_key);
    PutU64(&out, part.join_cells);
    PutU64(&out, part.values.size());
    for (double v : part.values) PutF64(&out, v);
  }
  return out;
}

Result<std::vector<PartialCore>> DecodePartialCores(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  // Smallest record: pivot key + join cells + value count, no values.
  M2TD_RETURN_IF_ERROR(
      reader.CheckFits(count, 3 * sizeof(std::uint64_t), "partial core"));
  std::vector<PartialCore> parts;
  parts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t e = 0; e < count; ++e) {
    PartialCore part;
    std::uint64_t size = 0;
    M2TD_RETURN_IF_ERROR(reader.U64(&part.pivot_key));
    M2TD_RETURN_IF_ERROR(reader.U64(&part.join_cells));
    M2TD_RETURN_IF_ERROR(reader.U64(&size));
    M2TD_RETURN_IF_ERROR(
        reader.CheckFits(size, sizeof(double), "partial core value"));
    part.values.resize(static_cast<std::size_t>(size));
    for (double& v : part.values) M2TD_RETURN_IF_ERROR(reader.F64(&v));
    parts.push_back(std::move(part));
  }
  return parts;
}

std::string EncodeMatrix(const linalg::Matrix& matrix) {
  std::string out;
  PutU64(&out, matrix.rows());
  PutU64(&out, matrix.cols());
  for (double v : matrix.data()) PutF64(&out, v);
  return out;
}

Result<linalg::Matrix> DecodeMatrix(const std::string& bytes) {
  ByteReader reader(bytes);
  linalg::Matrix matrix;
  M2TD_RETURN_IF_ERROR(ReadMatrix(&reader, "matrix", &matrix));
  return matrix;
}

std::string EncodeGramPieces(const std::vector<GramPiece>& pieces) {
  std::string out;
  PutU64(&out, pieces.size());
  for (const GramPiece& piece : pieces) {
    PutU32(&out, static_cast<std::uint32_t>(piece.kappa));
    PutU64(&out, piece.sub_mode);
    PutU64(&out, piece.gram.rows());
    PutU64(&out, piece.gram.cols());
    for (double v : piece.gram.data()) PutF64(&out, v);
  }
  return out;
}

Result<std::vector<GramPiece>> DecodeGramPieces(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  // Smallest record: kappa + sub_mode + rows + cols, empty Gram.
  M2TD_RETURN_IF_ERROR(reader.CheckFits(count, 28, "gram piece"));
  std::vector<GramPiece> pieces;
  pieces.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t e = 0; e < count; ++e) {
    GramPiece piece;
    std::uint32_t kappa = 0;
    std::uint64_t sub_mode = 0;
    M2TD_RETURN_IF_ERROR(reader.U32(&kappa));
    M2TD_RETURN_IF_ERROR(reader.U64(&sub_mode));
    M2TD_RETURN_IF_ERROR(ReadMatrix(&reader, "gram", &piece.gram));
    piece.kappa = static_cast<int>(kappa);
    piece.sub_mode = static_cast<std::size_t>(sub_mode);
    pieces.push_back(std::move(piece));
  }
  return pieces;
}

std::string EncodeU64List(const std::vector<std::uint64_t>& values) {
  std::string out;
  PutU64(&out, values.size());
  for (std::uint64_t v : values) PutU64(&out, v);
  return out;
}

Result<std::vector<std::uint64_t>> DecodeU64List(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  M2TD_RETURN_IF_ERROR(
      reader.CheckFits(count, sizeof(std::uint64_t), "u64 list"));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(count));
  for (std::uint64_t& v : values) M2TD_RETURN_IF_ERROR(reader.U64(&v));
  return values;
}

// ------------------------------------------------------------- execution

Status RunDistTask(const io::ShuffleStore& store,
                   const DistJobConfig& config, const TaskRequest& task) {
  obs::ObsSpan span(task.is_map ? "dist_map_task" : "dist_reduce_task");
  span.Annotate("phase", task.phase);
  span.Annotate("task", static_cast<std::int64_t>(task.index));
  span.Annotate("attempt", static_cast<std::int64_t>(task.attempt));
  M2TD_RETURN_IF_ERROR(robust::CheckFailpoint(
      task.is_map ? "dist.map_task" : "dist.reduce_task"));
  MaybeStragglerSleep(task);
  M2TD_RETURN_IF_ERROR(robust::CheckCancelled());
  M2TD_ASSIGN_OR_RETURN(const JobGeometry geometry, GeometryOf(config));
  if (task.is_map) return RunMapTask(store, config, geometry, task);
  return RunReduceTask(store, config, geometry, task);
}

const char* WorkerExitCodeName(int code) {
  switch (code) {
    case kWorkerExitOk:
      return "ok";
    case kWorkerExitBadInvocation:
      return "bad invocation";
    case kWorkerExitBadJob:
      return "unreadable job";
    case kWorkerExitMalformedFrame:
      return "malformed frame";
    case kWorkerExitLostCoordinator:
      return "lost coordinator";
  }
  return "unknown";
}

}  // namespace m2td::core::dm2td_tasks
