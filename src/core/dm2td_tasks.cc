#include "core/dm2td_tasks.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/durable.h"
#include "robust/failpoint.h"

namespace m2td::core::dm2td_tasks {

using dm2td_internal::GramPiece;
using dm2td_internal::JobGeometry;
using dm2td_internal::JoinCell;
using dm2td_internal::TensorCell;

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

/// Encoded size of one FiberPair: key + i_n + value.
constexpr std::size_t kFiberPairBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(double);

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

/// Calls `on_count(count)` once, then `on_cell(idx, value)` for every
/// cell of an EncodeJoinCells segment. `idx` is one scratch buffer reused
/// across cells, so walking a segment allocates nothing per cell.
template <typename OnCount, typename OnCell>
Status ForEachJoinCell(const std::string& bytes, OnCount&& on_count,
                       OnCell&& on_cell) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  // Smallest record: arity + value, no indices.
  M2TD_RETURN_IF_ERROR(reader.CheckFits(count, 12, "join cell"));
  on_count(count);
  std::vector<std::uint32_t> idx;
  for (std::uint64_t e = 0; e < count; ++e) {
    std::uint32_t arity = 0;
    double value = 0.0;
    M2TD_RETURN_IF_ERROR(reader.U32(&arity));
    M2TD_RETURN_IF_ERROR(
        reader.CheckFits(arity, sizeof(std::uint32_t), "join cell index"));
    idx.resize(arity);
    for (std::uint32_t& i : idx) M2TD_RETURN_IF_ERROR(reader.U32(&i));
    M2TD_RETURN_IF_ERROR(reader.F64(&value));
    M2TD_RETURN_IF_ERROR(on_cell(idx, value));
  }
  return Status::OK();
}

/// Appends the pairs of an EncodeFiberPairs segment to `out`.
Status AppendFiberPairs(const std::string& bytes,
                        std::vector<FiberPair>* out) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  M2TD_RETURN_IF_ERROR(reader.CheckFits(count, kFiberPairBytes, "fiber pair"));
  if (out->empty()) out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t e = 0; e < count; ++e) {
    FiberPair pair;
    M2TD_RETURN_IF_ERROR(reader.U64(&pair.key));
    M2TD_RETURN_IF_ERROR(reader.U32(&pair.i));
    M2TD_RETURN_IF_ERROR(reader.F64(&pair.v));
    out->push_back(pair);
  }
  return Status::OK();
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
                  const TaskRequest& task) {
  const JobGeometry geometry = GeometryOf(config);
  const std::size_t shards = static_cast<std::size_t>(config.shards);

  if (task.phase == "p1map" || task.phase == "p2map") {
    M2TD_ASSIGN_OR_RETURN(
        std::string bytes,
        store.ReadSegment(kCellsFile, static_cast<std::size_t>(task.index),
                          "input"));
    M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> cells, DecodeCells(bytes));
    std::vector<std::vector<TensorCell>> buckets(shards);
    for (TensorCell& cell : cells) {
      // Phase 1 shards by sub-tensor, phase 2 by pivot hash — both
      // functions of the record alone, so sharding is identical for any
      // worker count and any split boundaries.
      const std::uint64_t shard =
          task.phase == "p1map"
              ? static_cast<std::uint64_t>(cell.kappa - 1) % shards
              : dm2td_internal::PivotKey(cell.idx, geometry.pivot_dims) %
                    shards;
      buckets[shard].push_back(std::move(cell));
    }
    return WriteAndCommit(
        store, task, shards,
        [&](std::size_t r) {
          return buckets[r].empty() ? std::string() : EncodeCells(buckets[r]);
        },
        cells.size());
  }

  // p3map_<n>: split m is upstream reduce task m's output, walked
  // straight into (key, i_n, value) buckets.
  const std::size_t mode = static_cast<std::size_t>(task.mode);
  if (task.mode < 0 || mode >= task.shape.size()) {
    return Status::InvalidArgument("phase-3 task for mode " +
                                   std::to_string(task.mode) + " of a " +
                                   std::to_string(task.shape.size()) +
                                   "-mode tensor");
  }
  M2TD_ASSIGN_OR_RETURN(
      std::string bytes,
      ReadReduceOutput(store, Phase3UpstreamPhase(task.mode), task.index));
  std::vector<std::vector<FiberPair>> buckets(shards);
  std::uint64_t records = 0;
  M2TD_RETURN_IF_ERROR(ForEachJoinCell(
      bytes,
      [&](std::uint64_t count) {
        records = count;
        for (std::vector<FiberPair>& bucket : buckets) {
          bucket.reserve(static_cast<std::size_t>(count / shards));
        }
      },
      [&](const std::vector<std::uint32_t>& idx, double value) -> Status {
        if (idx.size() != task.shape.size()) {
          return Status::IOError(
              "join cell of arity " + std::to_string(idx.size()) + " in a " +
              std::to_string(task.shape.size()) + "-mode tensor");
        }
        const std::uint64_t key =
            dm2td_internal::Phase3FiberKey(idx.data(), mode, task.shape);
        buckets[key % shards].push_back(FiberPair{key, idx[mode], value});
        return Status::OK();
      }));
  // The upstream segment is no longer needed while the output is written.
  bytes.clear();
  bytes.shrink_to_fit();
  return WriteAndCommit(
      store, task, shards,
      [&](std::size_t r) {
        return buckets[r].empty() ? std::string()
                                  : EncodeFiberPairs(buckets[r]);
      },
      records);
}

/// Calls `fn` on segment `r` of every committed map task file of
/// `map_phase`, in map-task order — reproducing the global input order
/// the thread backend's shuffle delivers. Empty segments (a map task
/// that emitted nothing for this shard) are skipped.
template <typename Fn>
Status ForEachShardSegment(const io::ShuffleStore& store,
                           const std::string& map_phase, int shards, int r,
                           Fn&& fn) {
  for (int m = 0; m < shards; ++m) {
    M2TD_ASSIGN_OR_RETURN(
        std::string bytes,
        store.ReadSegment(io::ShuffleStore::TaskFileName(map_phase, m),
                          static_cast<std::size_t>(r),
                          map_phase + ":" + std::to_string(m)));
    if (!bytes.empty()) M2TD_RETURN_IF_ERROR(fn(bytes));
  }
  return Status::OK();
}

Status RunReduceTask(const io::ShuffleStore& store,
                     const DistJobConfig& config, const TaskRequest& task) {
  const JobGeometry geometry = GeometryOf(config);
  const std::string map_phase = MapPhaseOf(task.phase);

  if (task.phase == "p1red") {
    std::map<int, std::vector<TensorCell>> by_kappa;
    M2TD_RETURN_IF_ERROR(ForEachShardSegment(
        store, map_phase, config.shards, task.index,
        [&](const std::string& bytes) -> Status {
          M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> part,
                                DecodeCells(bytes));
          for (TensorCell& cell : part) {
            by_kappa[cell.kappa].push_back(std::move(cell));
          }
          return Status::OK();
        }));
    std::vector<GramPiece> pieces;
    for (const auto& [kappa, group] : by_kappa) {
      M2TD_RETURN_IF_ERROR(dm2td_internal::BuildGramsForSub(
          kappa, kappa == 1 ? config.shape1 : config.shape2, group,
          &pieces));
    }
    return WriteAndCommit(
        store, task, 1, [&](std::size_t) { return EncodeGramPieces(pieces); },
        pieces.size());
  }

  if (task.phase == "p2red") {
    std::vector<std::uint64_t> cand1, cand2;
    if (config.zero_join) {
      M2TD_ASSIGN_OR_RETURN(std::string c1,
                            store.ReadSegment(kCandidatesFile, 0, "input"));
      M2TD_ASSIGN_OR_RETURN(std::string c2,
                            store.ReadSegment(kCandidatesFile, 1, "input"));
      M2TD_ASSIGN_OR_RETURN(cand1, DecodeU64List(c1));
      M2TD_ASSIGN_OR_RETURN(cand2, DecodeU64List(c2));
    }
    // Group by pivot key, preserving global arrival order within each
    // group; fold groups in ascending key order (canonical).
    std::map<std::uint64_t, std::vector<TensorCell>> groups;
    M2TD_RETURN_IF_ERROR(ForEachShardSegment(
        store, map_phase, config.shards, task.index,
        [&](const std::string& bytes) -> Status {
          M2TD_ASSIGN_OR_RETURN(std::vector<TensorCell> part,
                                DecodeCells(bytes));
          for (TensorCell& cell : part) {
            const std::uint64_t key =
                dm2td_internal::PivotKey(cell.idx, geometry.pivot_dims);
            groups[key].push_back(std::move(cell));
          }
          return Status::OK();
        }));
    std::vector<JoinCell> out;
    for (const auto& [key, group] : groups) {
      dm2td_internal::JoinPivotGroup(key, group, geometry, config.zero_join,
                                     cand1, cand2, &out);
    }
    return WriteAndCommit(
        store, task, 1, [&](std::size_t) { return EncodeJoinCells(out); },
        out.size());
  }

  // p3red_<n>: group the (key, i_n, value) pairs by sorting them on
  // (key, i_n). Keys come out ascending, as the fold order requires, and
  // i_n is unique within a fiber (cells have unique index vectors), so
  // the order — and every bit ContractFiber computes — is canonical.
  const std::size_t n = static_cast<std::size_t>(task.mode);
  M2TD_ASSIGN_OR_RETURN(
      std::string factor_bytes,
      store.ReadSegment(kFactorsFile, n, "input"));
  M2TD_ASSIGN_OR_RETURN(linalg::Matrix factor, DecodeMatrix(factor_bytes));
  std::vector<std::uint64_t> other_dims;
  std::vector<std::size_t> other_modes;
  for (std::size_t m = 0; m < task.shape.size(); ++m) {
    if (m != n) {
      other_dims.push_back(task.shape[m]);
      other_modes.push_back(m);
    }
  }
  std::vector<FiberPair> pairs;
  M2TD_RETURN_IF_ERROR(ForEachShardSegment(
      store, map_phase, config.shards, task.index,
      [&](const std::string& bytes) {
        return AppendFiberPairs(bytes, &pairs);
      }));
  std::sort(pairs.begin(), pairs.end(),
            [](const FiberPair& a, const FiberPair& b) {
              return a.key != b.key ? a.key < b.key : a.i < b.i;
            });
  std::vector<JoinCell> out;
  std::vector<std::pair<std::uint32_t, double>> fiber;
  for (std::size_t begin = 0; begin < pairs.size();) {
    const std::uint64_t key = pairs[begin].key;
    fiber.clear();
    std::size_t end = begin;
    for (; end < pairs.size() && pairs[end].key == key; ++end) {
      if (pairs[end].i >= factor.rows()) {
        return Status::IOError("fiber pair index " +
                               std::to_string(pairs[end].i) +
                               " outside the mode-" + std::to_string(n) +
                               " factor's " + std::to_string(factor.rows()) +
                               " rows");
      }
      fiber.emplace_back(pairs[end].i, pairs[end].v);
    }
    dm2td_internal::ContractFiber(key, &fiber, factor, n, other_dims,
                                  other_modes, task.shape.size(), &out);
    begin = end;
  }
  return WriteAndCommit(
      store, task, 1, [&](std::size_t) { return EncodeJoinCells(out); },
      out.size());
}

}  // namespace

// ------------------------------------------------------------ job config

Status SaveJobConfig(const std::string& path, const DistJobConfig& config) {
  return robust::AtomicWriteFile(path, [&](const std::string& tmp) -> Status {
    std::ofstream out(tmp);
    if (!out) return Status::IOError("cannot write job config '" + tmp + "'");
    auto write_u64s = [&out](const char* label,
                             const std::vector<std::uint64_t>& values) {
      out << label << " " << values.size();
      for (std::uint64_t v : values) out << " " << v;
      out << "\n";
    };
    auto write_modes = [&out](const char* label,
                              const std::vector<std::size_t>& values) {
      out << label << " " << values.size();
      for (std::size_t v : values) out << " " << v;
      out << "\n";
    };
    out << "m2td-dist-job 1\n";
    write_u64s("full_shape", config.full_shape);
    write_u64s("shape1", config.shape1);
    write_u64s("shape2", config.shape2);
    write_modes("pivot_modes", config.pivot_modes);
    write_modes("side1_modes", config.side1_modes);
    write_modes("side2_modes", config.side2_modes);
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
  auto read_u64s = [&](const char* label,
                       std::vector<std::uint64_t>* out) -> Status {
    std::size_t count = 0;
    if (!(in >> token >> count) || token != label) {
      return Status::IOError(std::string("malformed job config: ") + label);
    }
    out->resize(count);
    for (std::uint64_t& v : *out) {
      if (!(in >> v)) return Status::IOError("malformed job config value");
    }
    return Status::OK();
  };
  auto read_modes = [&](const char* label,
                        std::vector<std::size_t>* out) -> Status {
    std::size_t count = 0;
    if (!(in >> token >> count) || token != label) {
      return Status::IOError(std::string("malformed job config: ") + label);
    }
    out->resize(count);
    for (std::size_t& v : *out) {
      if (!(in >> v)) return Status::IOError("malformed job config value");
    }
    return Status::OK();
  };
  M2TD_RETURN_IF_ERROR(read_u64s("full_shape", &config.full_shape));
  M2TD_RETURN_IF_ERROR(read_u64s("shape1", &config.shape1));
  M2TD_RETURN_IF_ERROR(read_u64s("shape2", &config.shape2));
  M2TD_RETURN_IF_ERROR(read_modes("pivot_modes", &config.pivot_modes));
  M2TD_RETURN_IF_ERROR(read_modes("side1_modes", &config.side1_modes));
  M2TD_RETURN_IF_ERROR(read_modes("side2_modes", &config.side2_modes));
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

dm2td_internal::JobGeometry GeometryOf(const DistJobConfig& config) {
  JobGeometry g;
  g.num_modes = config.full_shape.size();
  g.k = config.pivot_modes.size();
  g.pivot_modes = config.pivot_modes;
  g.side1_modes = config.side1_modes;
  g.side2_modes = config.side2_modes;
  g.pivot_dims = dm2td_internal::ModeDims(config.full_shape,
                                          config.pivot_modes);
  g.side1_dims = dm2td_internal::ModeDims(config.full_shape,
                                          config.side1_modes);
  g.side2_dims = dm2td_internal::ModeDims(config.full_shape,
                                          config.side2_modes);
  return g;
}

std::string MapPhaseOf(const std::string& reduce_phase) {
  std::string map_phase = reduce_phase;
  const std::size_t pos = map_phase.find("red");
  if (pos != std::string::npos) map_phase.replace(pos, 3, "map");
  return map_phase;
}

std::string Phase3UpstreamPhase(int mode) {
  return mode == 0 ? "p2red" : "p3red_" + std::to_string(mode - 1);
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
  frame += " " + std::to_string(task.mode);
  frame += " " + std::to_string(task.shape.size());
  for (std::uint64_t d : task.shape) frame += " " + std::to_string(d);
  return frame;
}

Result<TaskRequest> DecodeTaskFrame(const std::string& frame) {
  std::istringstream in(frame);
  std::string word;
  int is_map = 0;
  std::size_t nshape = 0;
  TaskRequest task;
  if (!(in >> word >> is_map >> task.phase >> task.index >> task.attempt >>
        task.mode >> nshape) ||
      word != "task") {
    return Status::IOError("malformed task frame '" + frame + "'");
  }
  task.is_map = is_map != 0;
  task.shape.resize(nshape);
  for (std::uint64_t& d : task.shape) {
    if (!(in >> d)) return Status::IOError("malformed task frame shape");
  }
  return task;
}

// ---------------------------------------------------------------- codecs

std::string EncodeCells(const TensorCell* cells, std::size_t count) {
  std::size_t size = sizeof(std::uint64_t);
  for (std::size_t e = 0; e < count; ++e) {
    size += 2 * sizeof(std::uint32_t) +
            cells[e].idx.size() * sizeof(std::uint32_t) + sizeof(double);
  }
  std::string out;
  out.reserve(size);
  PutU64(&out, count);
  for (std::size_t e = 0; e < count; ++e) {
    const TensorCell& cell = cells[e];
    PutU32(&out, static_cast<std::uint32_t>(cell.kappa));
    PutU32(&out, static_cast<std::uint32_t>(cell.idx.size()));
    for (std::uint32_t i : cell.idx) PutU32(&out, i);
    PutF64(&out, cell.value);
  }
  return out;
}

std::string EncodeCells(const std::vector<TensorCell>& cells) {
  return EncodeCells(cells.data(), cells.size());
}

Result<std::vector<TensorCell>> DecodeCells(const std::string& bytes) {
  ByteReader reader(bytes);
  std::uint64_t count = 0;
  M2TD_RETURN_IF_ERROR(reader.U64(&count));
  // Smallest record: kappa + arity + value, no indices.
  M2TD_RETURN_IF_ERROR(reader.CheckFits(count, 16, "cell"));
  std::vector<TensorCell> cells;
  cells.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t e = 0; e < count; ++e) {
    TensorCell cell;
    std::uint32_t kappa = 0, arity = 0;
    M2TD_RETURN_IF_ERROR(reader.U32(&kappa));
    M2TD_RETURN_IF_ERROR(reader.U32(&arity));
    M2TD_RETURN_IF_ERROR(
        reader.CheckFits(arity, sizeof(std::uint32_t), "cell index"));
    cell.kappa = static_cast<int>(kappa);
    cell.idx.resize(arity);
    for (std::uint32_t& i : cell.idx) M2TD_RETURN_IF_ERROR(reader.U32(&i));
    M2TD_RETURN_IF_ERROR(reader.F64(&cell.value));
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string EncodeJoinCells(const std::vector<JoinCell>& cells) {
  std::size_t size = sizeof(std::uint64_t);
  for (const JoinCell& cell : cells) {
    size += sizeof(std::uint32_t) + cell.idx.size() * sizeof(std::uint32_t) +
            sizeof(double);
  }
  std::string out;
  out.reserve(size);
  PutU64(&out, cells.size());
  for (const JoinCell& cell : cells) {
    PutU32(&out, static_cast<std::uint32_t>(cell.idx.size()));
    for (std::uint32_t i : cell.idx) PutU32(&out, i);
    PutF64(&out, cell.value);
  }
  return out;
}

Result<std::vector<JoinCell>> DecodeJoinCells(const std::string& bytes) {
  std::vector<JoinCell> cells;
  M2TD_RETURN_IF_ERROR(ForEachJoinCell(
      bytes,
      [&](std::uint64_t count) {
        cells.reserve(static_cast<std::size_t>(count));
      },
      [&](const std::vector<std::uint32_t>& idx, double value) {
        cells.push_back(JoinCell{idx, value});
        return Status::OK();
      }));
  return cells;
}

std::string EncodeFiberPairs(const std::vector<FiberPair>& pairs) {
  std::string out;
  out.reserve(sizeof(std::uint64_t) + pairs.size() * kFiberPairBytes);
  PutU64(&out, pairs.size());
  for (const FiberPair& pair : pairs) {
    PutU64(&out, pair.key);
    PutU32(&out, pair.i);
    PutF64(&out, pair.v);
  }
  return out;
}

Result<std::vector<FiberPair>> DecodeFiberPairs(const std::string& bytes) {
  std::vector<FiberPair> pairs;
  M2TD_RETURN_IF_ERROR(AppendFiberPairs(bytes, &pairs));
  return pairs;
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
  if (task.is_map) return RunMapTask(store, config, task);
  return RunReduceTask(store, config, task);
}

const char* WorkerExitCodeName(int code) {
  switch (code) {
    case kWorkerExitOk:
      return "ok";
    case kWorkerExitTornPipe:
      return "torn control channel";
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
