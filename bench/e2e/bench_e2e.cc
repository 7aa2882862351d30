// End-to-end M2TD pipeline benchmark: one workload per process.
//
// A rep is the whole paper pipeline on one of the paper's systems:
// simulate the two PF-partitioned sub-ensembles, decompose (in-memory
// M2TD, or D-M2TD on the thread or the process backend), reconstruct, and
// score against the full ground truth. The bench times only calls into
// public functions and prints one JSON document with the raw per-rep
// samples; run_e2e.py turns them into the metrics named in BENCHMARK.json.
//
// With --trace=<file> each timed rep is followed by a traced rep that
// records the bench's own spans around every layer call. In-memory
// workloads replay M2tdDecompose there from its public kernels
// (ModeGram -> GramFactor -> RowSelect -> JeStitch -> CoreFromSparse), and
// the replay must be bit-identical to the program's own call. The spans
// are written to <file> as Chrome-trace JSON when the run ends.
//
// Exit code: 0 when every rep and check passed, 1 when one failed (the
// JSON is still printed), 2 on bad flags or a failed set-up.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dm2td.h"
#include "core/experiment.h"
#include "core/je_stitch.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/simulation_model.h"
#include "linalg/rsvd.h"
#include "parallel/thread_pool.h"
#include "tensor/matricize.h"
#include "tensor/ttm.h"
#include "tensor/tucker.h"
#include "util/flags.h"
#include "util/result.h"
#include "util/timer.h"

namespace m2td::bench_e2e {
namespace {

namespace fs = std::filesystem;

using ModelFactory = Result<std::unique_ptr<ensemble::DynamicalSystemModel>> (*)(
    const ensemble::ModelOptions&);

struct Workload {
  const char* name;
  ModelFactory make_model;
  std::uint32_t parameter_resolution;
  std::uint32_t time_resolution;
  std::uint64_t rank;
  bool distributed;
  core::DistBackend backend;
};

// Every workload runs at full density with pivot = time, so its result does
// not depend on --seed. README.md records why each one was chosen.
constexpr Workload kWorkloads[] = {
    // 16^5 cells: the join is the whole space, so JE-stitch and the core
    // recovery dominate and the factor solves are negligible.
    {"dense_join", ensemble::MakeTriplePendulumModel, 16, 16, 8, false,
     core::DistBackend::kThread},
    // A 96-sample time mode: 96x96 Grams make the factor solves and the
    // scoring a large share.
    {"long_horizon", ensemble::MakeLorenzModel, 9, 96, 10, false,
     core::DistBackend::kThread},
    // The Table III configuration, on both D-M2TD backends.
    {"dist_thread", ensemble::MakeDoublePendulumModel, 12, 12, 5, true,
     core::DistBackend::kThread},
    {"dist_process", ensemble::MakeDoublePendulumModel, 12, 12, 5, true,
     core::DistBackend::kProcess},
};

// ------------------------------------------------------------ spans

struct SpanEvent {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int rep = -1;
};

// The bench's own spans, kept in memory. Single-threaded: only the bench's
// main thread opens spans.
class SpanLog {
 public:
  int Open(const char* name) {
    const int index = static_cast<int>(events_.size());
    events_.push_back({name, NowUs(), 0.0, open_, rep_});
    open_ = index;
    return index;
  }
  void Close(int index) {
    events_[index].end_us = NowUs();
    open_ = events_[index].parent;
  }
  void set_rep(int rep) { rep_ = rep; }
  const std::vector<SpanEvent>& events() const { return events_; }

  Status WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const SpanEvent& e = events_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << e.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << e.start_us
          << ",\"dur\":" << e.end_us - e.start_us << ",\"args\":{\"rep\":"
          << e.rep << ",\"parent\":" << e.parent << "}}";
    }
    out << "\n]}\n";
    out.close();
    if (!out) return Status::IOError("cannot write trace '" + path + "'");
    return Status::OK();
  }

 private:
  static double NowUs() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }

  std::vector<SpanEvent> events_;
  int open_ = -1;
  int rep_ = -1;
};

// Scoped span; records nothing when `log` is null (untraced reps).
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->Open(name) : -1) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }
  void End() {
    if (index_ >= 0) log_->Close(index_);
    index_ = -1;
  }

 private:
  SpanLog* log_;
  int index_;
};

// ------------------------------------------------------ process stats

struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
};

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

// RUSAGE_CHILDREN covers only reaped children, so worker processes count
// once the process backend has drained them.
CpuTimes ReadCpu() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {Seconds(self.ru_utime) + Seconds(self.ru_stime),
          Seconds(children.ru_utime) + Seconds(children.ru_stime)};
}

double ChildPeakRssMb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return children.ru_maxrss / 1024.0;
}

// Restarts VmHWM so the peak covers the pipeline, not the ground-truth
// build (whose trajectory cache dwarfs a rep on dense_join).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  double hwm_kb = 0.0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = std::stod(line.substr(6));
  }
  return hwm_kb / 1024.0 + ChildPeakRssMb();
}

// FNV-1a over the core and factor shapes and bytes.
std::uint64_t Fingerprint(const tensor::TuckerDecomposition& tucker) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ull;
    }
  };
  const std::vector<std::uint64_t>& shape = tucker.core.shape();
  mix(shape.data(), shape.size() * sizeof(std::uint64_t));
  mix(tucker.core.data().data(), tucker.core.data().size() * sizeof(double));
  for (const linalg::Matrix& factor : tucker.factors) {
    const std::uint64_t dims[2] = {factor.rows(), factor.cols()};
    mix(dims, sizeof(dims));
    mix(factor.data().data(), factor.data().size() * sizeof(double));
  }
  return hash;
}

// ------------------------------------------------------------ pipeline

struct Setup {
  std::unique_ptr<ensemble::DynamicalSystemModel> model;
  tensor::DenseTensor truth;
  core::PfPartition partition;
  std::vector<std::uint64_t> shape;
  std::vector<std::uint64_t> ranks;
};

Result<Setup> BuildSetup(const Workload& workload) {
  ensemble::ModelOptions options;
  options.parameter_resolution = workload.parameter_resolution;
  options.time_resolution = workload.time_resolution;
  Setup setup;
  M2TD_ASSIGN_OR_RETURN(setup.model, workload.make_model(options));
  M2TD_ASSIGN_OR_RETURN(setup.truth,
                        ensemble::BuildFullTensor(setup.model.get()));
  setup.model->ClearCache();
  M2TD_ASSIGN_OR_RETURN(setup.partition,
                        core::MakePartition(setup.model->space().num_modes(),
                                            {setup.model->time_mode()}));
  setup.shape = setup.model->space().Shape();
  setup.ranks = core::UniformRanks(*setup.model, workload.rank);
  return setup;
}

core::DM2tdOptions DistOptions(const Setup& setup, core::DistBackend backend) {
  core::DM2tdOptions options;
  options.method = core::M2tdMethod::kSelect;
  options.ranks = setup.ranks;
  options.num_workers = 1;
  options.num_shards = 8;
  options.backend = backend;
  options.process.worker_binary = M2TD_WORKER_BIN;
  return options;
}

// Work counts of one replay, next to the span times.
struct ReplayCounts {
  double gram_dim_max = 0.0;
  std::uint64_t join_nnz = 0;
};

// M2tdDecompose (M2TD-SELECT, deterministic init) rebuilt from its public
// parts, with a span around each layer call. Must stay bit-identical to
// the program: same kernels, same order, same per-mode init seeds.
Result<tensor::TuckerDecomposition> ReplayM2td(const core::SubEnsembles& subs,
                                               const Setup& setup,
                                               SpanLog* log,
                                               ReplayCounts* counts) {
  const core::PfPartition& partition = setup.partition;
  const std::size_t num_modes = setup.shape.size();
  const std::size_t k = partition.pivot_modes.size();
  const linalg::GramFactorOptions init;

  auto sub_factor = [&](const tensor::SparseTensor& x, std::size_t sub_mode,
                        std::uint64_t rank, std::size_t init_mode)
      -> Result<linalg::Matrix> {
    linalg::Matrix gram;
    {
      Span span(log, "tensor.mode_gram");
      M2TD_ASSIGN_OR_RETURN(gram, tensor::ModeGram(x, sub_mode));
    }
    counts->gram_dim_max =
        std::max(counts->gram_dim_max, static_cast<double>(gram.rows()));
    Span span(log, "linalg.gram_factor");
    return linalg::GramFactor(
        gram,
        static_cast<std::size_t>(std::min<std::uint64_t>(rank, x.dim(sub_mode))),
        init.ForMode(init_mode));
  };

  std::vector<linalg::Matrix> factors(num_modes);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t mode = partition.pivot_modes[i];
    M2TD_ASSIGN_OR_RETURN(linalg::Matrix u1,
                          sub_factor(subs.x1, i, setup.ranks[mode], mode));
    M2TD_ASSIGN_OR_RETURN(
        linalg::Matrix u2,
        sub_factor(subs.x2, i, setup.ranks[mode], mode + num_modes));
    Span span(log, "core.combine");
    M2TD_ASSIGN_OR_RETURN(factors[mode], core::RowSelect(u1, u2));
  }
  for (std::size_t i = 0; i < partition.side1_modes.size(); ++i) {
    const std::size_t mode = partition.side1_modes[i];
    M2TD_ASSIGN_OR_RETURN(factors[mode],
                          sub_factor(subs.x1, k + i, setup.ranks[mode], mode));
  }
  for (std::size_t i = 0; i < partition.side2_modes.size(); ++i) {
    const std::size_t mode = partition.side2_modes[i];
    M2TD_ASSIGN_OR_RETURN(
        factors[mode],
        sub_factor(subs.x2, k + i, setup.ranks[mode], mode + num_modes));
  }

  tensor::SparseTensor join;
  {
    Span span(log, "core.je_stitch");
    M2TD_ASSIGN_OR_RETURN(join,
                          core::JeStitch(subs, partition, setup.shape, {}));
  }
  counts->join_nnz = join.NumNonZeros();
  tensor::TuckerDecomposition tucker;
  {
    Span span(log, "tensor.core_from_sparse");
    M2TD_ASSIGN_OR_RETURN(tucker.core, tensor::CoreFromSparse(join, factors));
  }
  tucker.factors = std::move(factors);
  return tucker;
}

// One rep's measurements. `layers` is filled on traced reps only.
struct Rep {
  double pipeline_s = 0.0;
  double decompose_s = 0.0;
  double cpu_s = 0.0;
  double accuracy = 0.0;
  std::uint64_t fingerprint = 0;
  core::M2tdTimings timings;
  std::map<std::string, double> layers;
};

// Sums this rep's span times and call counts per layer name, and the time
// no top-level layer span claims.
void AddSpanLayers(const SpanLog& log, int root, Rep* rep) {
  const std::vector<SpanEvent>& events = log.events();
  double top_level_s = 0.0;
  for (std::size_t i = root + 1; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    const double seconds = (e.end_us - e.start_us) * 1e-6;
    rep->layers[e.name + "_s"] += seconds;
    rep->layers[e.name + "_calls"] += 1.0;
    if (e.parent == root) top_level_s += seconds;
  }
  const double rep_s = (events[root].end_us - events[root].start_us) * 1e-6;
  rep->layers["rep_s"] = rep_s;
  rep->layers["ledger.unattributed_s"] = rep_s - top_level_s;
  rep->layers["ledger.unattributed_frac"] =
      rep_s > 0.0 ? (rep_s - top_level_s) / rep_s : 0.0;
}

void AddDistLayers(const core::DM2tdResult& result, double decompose_s,
                   double decompose_cpu_s, Rep* rep) {
  const mapreduce::JobStats* phases[] = {&result.phase1, &result.phase2,
                                         &result.phase3};
  for (int p = 0; p < 3; ++p) {
    const std::string prefix = "mapreduce.p" + std::to_string(p + 1) + ".";
    rep->layers[prefix + "map_s"] = phases[p]->map_seconds;
    rep->layers[prefix + "shuffle_s"] = phases[p]->shuffle_seconds;
    rep->layers[prefix + "reduce_s"] = phases[p]->reduce_seconds;
    rep->layers[prefix + "pairs"] =
        static_cast<double>(phases[p]->intermediate_pairs);
    rep->layers[prefix + "records"] =
        static_cast<double>(phases[p]->output_records);
  }
  rep->layers["core.dm2td.driver_s"] = decompose_s - result.TotalSeconds();
  rep->layers["core.dm2td.wait_frac"] =
      decompose_s > 0.0 ? 1.0 - decompose_cpu_s / decompose_s : 0.0;
  const core::DistStats& dist = result.dist;
  rep->layers["dist.workers_spawned"] = dist.workers_spawned;
  rep->layers["dist.heartbeats"] = static_cast<double>(dist.heartbeats);
  rep->layers["dist.wasted_attempts"] = static_cast<double>(
      dist.tasks_reassigned + dist.task_retries + dist.map_reexecutions +
      dist.speculative_launched);
  rep->layers["dist.worker_peak_rss_mb"] = ChildPeakRssMb();
}

// Files and bytes under `dir`, which is then removed.
void MeasureAndRemoveJobDir(const fs::path& dir, Rep* rep) {
  double files = 0.0;
  double bytes = 0.0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    files += 1.0;
    bytes += static_cast<double>(entry.file_size());
  }
  fs::remove_all(dir, ec);
  rep->layers["io.shuffle_files"] = files;
  rep->layers["io.shuffle_bytes"] = bytes;
}

// Simulate -> decompose -> reconstruct -> score. With `log` the rep is
// traced: spans are recorded, in-memory workloads run the replay, and the
// process backend keeps its job directory for measurement.
Result<Rep> RunRep(const Workload& workload, Setup* setup, std::uint64_t seed,
                   SpanLog* log, int rep_id) {
  Rep rep;
  if (log) log->set_rep(rep_id);
  const CpuTimes cpu0 = ReadCpu();
  Timer wall;
  Span root(log, "rep");
  const int root_index = root.index();

  core::SubEnsembles subs;
  {
    Span span(log, "ensemble.sub_ensembles");
    setup->model->ClearCache();
    core::SubEnsembleOptions options;
    options.seed = seed;
    M2TD_ASSIGN_OR_RETURN(subs, core::BuildSubEnsembles(setup->model.get(),
                                                        setup->partition,
                                                        options));
  }

  tensor::TuckerDecomposition tucker;
  std::uint64_t join_nnz = 0;
  ReplayCounts replay_counts;
  core::DM2tdResult dist_result;
  fs::path job_dir;
  {
    Span span(log, "core.decompose");
    const CpuTimes decompose_cpu0 = ReadCpu();
    Timer timer;
    if (workload.distributed) {
      core::DM2tdOptions options = DistOptions(*setup, workload.backend);
      if (log && workload.backend == core::DistBackend::kProcess) {
        job_dir = fs::temp_directory_path() /
                  ("bench_e2e_job_" + std::to_string(::getpid()) + "_" +
                   std::to_string(rep_id));
        options.process.job_dir = job_dir.string();
        options.process.keep_job_dir = true;
      }
      M2TD_ASSIGN_OR_RETURN(dist_result,
                            core::DM2tdDecompose(subs, setup->partition,
                                                 setup->shape, options));
      tucker = std::move(dist_result.tucker);
      join_nnz = dist_result.join_nnz;
    } else if (log) {
      M2TD_ASSIGN_OR_RETURN(tucker,
                            ReplayM2td(subs, *setup, log, &replay_counts));
      join_nnz = replay_counts.join_nnz;
    } else {
      core::M2tdOptions options;
      options.method = core::M2tdMethod::kSelect;
      options.ranks = setup->ranks;
      M2TD_ASSIGN_OR_RETURN(core::M2tdResult result,
                            core::M2tdDecompose(subs, setup->partition,
                                                setup->shape, options));
      tucker = std::move(result.tucker);
      join_nnz = result.join_nnz;
      rep.timings = result.timings;
    }
    rep.decompose_s = timer.ElapsedSeconds();
    if (log && workload.distributed) {
      const CpuTimes cpu = ReadCpu();
      AddDistLayers(dist_result, rep.decompose_s,
                    cpu.self_s - decompose_cpu0.self_s + cpu.children_s -
                        decompose_cpu0.children_s,
                    &rep);
    }
  }

  tensor::DenseTensor reconstructed;
  {
    Span span(log, "tensor.reconstruct");
    M2TD_ASSIGN_OR_RETURN(reconstructed, tensor::Reconstruct(tucker));
  }
  {
    Span span(log, "tensor.accuracy");
    rep.accuracy = tensor::ReconstructionAccuracy(reconstructed, setup->truth);
  }
  root.End();
  rep.pipeline_s = wall.ElapsedSeconds();
  const CpuTimes cpu1 = ReadCpu();
  rep.cpu_s = cpu1.self_s - cpu0.self_s + cpu1.children_s - cpu0.children_s;
  rep.fingerprint = Fingerprint(tucker);
  if (!log) return rep;

  AddSpanLayers(*log, root_index, &rep);
  const double core_s = rep.layers["tensor.core_from_sparse_s"];
  rep.layers["tensor.core_from_sparse_nnz_per_s"] =
      core_s > 0.0 ? static_cast<double>(join_nnz) / core_s : 0.0;
  rep.layers["cpu.self_s"] = cpu1.self_s - cpu0.self_s;
  rep.layers["cpu.children_s"] = cpu1.children_s - cpu0.children_s;
  rep.layers["ensemble.simulations"] =
      static_cast<double>(setup->model->SimulationsRun());
  rep.layers["ensemble.cells_evaluated"] =
      static_cast<double>(subs.cells_evaluated);
  rep.layers["linalg.gram_dim_max"] = replay_counts.gram_dim_max;
  rep.layers["core.join_nnz"] = static_cast<double>(join_nnz);
  if (!job_dir.empty()) MeasureAndRemoveJobDir(job_dir, &rep);
  return rep;
}

// ------------------------------------------------------------ output

std::string Hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::int64_t seed = 17;
  double seconds = 10.0;
  std::int64_t reps = 0;
  std::int64_t warmup = 3;
  std::int64_t setups = 3;
  std::string trace_path;
  std::string out_path;
  FlagParser flags(
      "bench_e2e: one end-to-end M2TD pipeline workload; prints raw "
      "per-rep samples as JSON");
  flags.AddString("workload",
                  "dense_join | long_horizon | dist_thread | dist_process",
                  &workload_name);
  flags.AddInt64("seed", "sub-ensemble seed", &seed);
  flags.AddDouble("seconds", "timed reps run until this much time has passed",
                  &seconds);
  flags.AddInt64("reps", "exact timed rep count instead of --seconds (>0)",
                 &reps);
  flags.AddInt64("warmup", "untimed warm-up reps", &warmup);
  flags.AddInt64("setups", "set-ups timed (the last one is used)", &setups);
  flags.AddString("trace",
                  "Chrome-trace output file; non-empty adds a traced rep "
                  "after every timed rep",
                  &trace_path);
  flags.AddString("out", "JSON output file (default stdout)", &out_path);
  const Result<std::vector<std::string>> parsed = flags.Parse(argc - 1,
                                                              argv + 1);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || setups < 1 || warmup < 0 || reps < 0) {
    std::cerr << "unknown --workload '" << workload_name
              << "' or negative count\n" << flags.Usage();
    return 2;
  }

  // One pool thread: on a shared VM a second pool thread helps only when its
  // vCPU wakes in time to claim chunks, so timings flip between a parallel
  // and a serial mode with the host's load. Results are bit-identical at any
  // pool size; worker processes keep their own default pool.
  const int pool_threads = 1;
  parallel::SetGlobalThreads(pool_threads);

  std::vector<double> setup_s;
  Setup setup;
  for (std::int64_t i = 0; i < setups; ++i) {
    setup = Setup{};
    Timer timer;
    Result<Setup> built = BuildSetup(*workload);
    if (!built.ok()) {
      std::cerr << "set-up failed: " << built.status() << "\n";
      return 2;
    }
    setup = std::move(built).ValueOrDie();
    setup_s.push_back(timer.ElapsedSeconds());
  }
  ResetPeakRss();

  SpanLog log;
  SpanLog* trace = trace_path.empty() ? nullptr : &log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference = 0;
  bool have_reference = false;
  double accuracy = 0.0;
  bool replay_identical = true;
  std::vector<double> pipeline_s, decompose_s, cpu_s;
  std::vector<std::map<std::string, double>> layers;

  // A rep fails on a non-OK Status or a Tucker that differs from the first.
  auto attempt = [&](SpanLog* span_log, int rep_id) -> std::optional<Rep> {
    ++attempted;
    Result<Rep> rep = RunRep(*workload, &setup,
                             static_cast<std::uint64_t>(seed), span_log, rep_id);
    if (!rep.ok()) {
      std::cerr << "rep failed: " << rep.status() << "\n";
      ++failed;
      return std::nullopt;
    }
    if (!have_reference) {
      reference = rep->fingerprint;
      accuracy = rep->accuracy;
      have_reference = true;
    }
    if (rep->fingerprint != reference) {
      std::cerr << "rep fingerprint " << Hex(rep->fingerprint)
                << " != " << Hex(reference) << "\n";
      ++failed;
      if (span_log && !workload->distributed) replay_identical = false;
      return std::nullopt;
    }
    return std::move(rep).ValueOrDie();
  };

  for (std::int64_t i = 0; i < warmup; ++i) attempt(nullptr, -1);
  Timer budget;
  for (int i = 0; reps > 0 ? i < reps : (i == 0 || budget.ElapsedSeconds() <
                                                       seconds);
       ++i) {
    const std::optional<Rep> rep = attempt(nullptr, -1);
    if (!rep) continue;
    pipeline_s.push_back(rep->pipeline_s);
    decompose_s.push_back(rep->decompose_s);
    cpu_s.push_back(rep->cpu_s);
    if (trace == nullptr) continue;
    std::optional<Rep> traced = attempt(trace, i);
    if (!traced) continue;
    if (!workload->distributed) {
      traced->layers["core.m2td.sub_decompose_s"] =
          rep->timings.sub_decompose_seconds;
      traced->layers["core.m2td.stitch_s"] = rep->timings.stitch_seconds;
      traced->layers["core.m2td.core_s"] = rep->timings.core_seconds;
    }
    layers.push_back(std::move(traced->layers));
  }
  const double peak_rss_mb = PeakRssMb();

  // Failed reps are counted above; these checks compare across paths. Both
  // D-M2TD backends must produce the same bits: run the other one once.
  std::map<std::string, bool> checks;
  if (trace && !workload->distributed) {
    checks["replay_identical"] = replay_identical;
  }
  if (workload->distributed && have_reference) {
    const core::DistBackend other =
        workload->backend == core::DistBackend::kThread
            ? core::DistBackend::kProcess
            : core::DistBackend::kThread;
    setup.model->ClearCache();
    core::SubEnsembleOptions options;
    options.seed = static_cast<std::uint64_t>(seed);
    Result<core::SubEnsembles> subs =
        core::BuildSubEnsembles(setup.model.get(), setup.partition, options);
    Result<core::DM2tdResult> result =
        subs.ok() ? core::DM2tdDecompose(*subs, setup.partition, setup.shape,
                                         DistOptions(setup, other))
                  : Result<core::DM2tdResult>(subs.status());
    checks["backend_identical"] =
        result.ok() && Fingerprint(result->tucker) == reference;
  }
  if (trace) {
    const Status written = log.WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::cerr << written << "\n";
      checks["trace_written"] = false;
    }
  }

  std::ostringstream json;
  json << "{\n  \"workload\": \"" << workload->name << "\",\n"
       << "  \"system\": \"" << setup.model->name() << "\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"nproc\": " << parallel::HardwareThreads() << ",\n"
       << "  \"pool_threads\": " << pool_threads << ",\n"
       << "  \"warmup\": " << warmup << ",\n"
       << "  \"traced\": " << (trace ? "true" : "false") << ",\n"
       << "  \"attempted\": " << attempted << ",\n"
       << "  \"failed\": " << failed << ",\n"
       << "  \"fingerprint\": \"" << Hex(reference) << "\",\n"
       << "  \"accuracy\": " << Num(accuracy) << ",\n"
       << "  \"peak_rss_mb\": " << Num(peak_rss_mb) << ",\n"
       << "  \"checks\": {";
  bool all_checks = true;
  for (auto it = checks.begin(); it != checks.end(); ++it) {
    json << (it == checks.begin() ? "" : ", ") << "\"" << it->first
         << "\": " << (it->second ? "true" : "false");
    all_checks = all_checks && it->second;
  }
  json << "},\n  \"setup_s\": " << NumList(setup_s)
       << ",\n  \"pipeline_s\": " << NumList(pipeline_s)
       << ",\n  \"decompose_s\": " << NumList(decompose_s)
       << ",\n  \"cpu_s\": " << NumList(cpu_s) << ",\n  \"layers\": [";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    json << (i ? "," : "") << "\n    {";
    for (auto it = layers[i].begin(); it != layers[i].end(); ++it) {
      json << (it == layers[i].begin() ? "" : ", ") << "\"" << it->first
           << "\": " << Num(it->second);
    }
    json << "}";
  }
  json << "\n  ]\n}\n";

  if (out_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(out_path);
    out << json.str();
    out.close();
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
  }
  return failed == 0 && all_checks ? 0 : 1;
}

}  // namespace
}  // namespace m2td::bench_e2e

int main(int argc, char** argv) { return m2td::bench_e2e::Main(argc, argv); }
