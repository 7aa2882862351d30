// m2td_cli — command-line front end to the M2TD library.
//
// Subcommands:
//   experiment   run one sampling+decomposition scheme against the ground
//                truth of a built-in dynamical system and print accuracy
//   simulate     build a conventional ensemble and save it as a tensor file
//   decompose    load a tensor file, decompose (hosvd | hooi | cp), report
//                the fit of the decomposition against the stored tensor
//   info         print a tensor file summary
//
// Examples:
//   m2td_cli experiment --system=double_pendulum --resolution=10
//       --scheme=select --rank=5
//   m2td_cli simulate --system=lorenz --resolution=8 --scheme=random
//       --budget=100 --output=/tmp/lorenz.txt
//   m2td_cli decompose --input=/tmp/lorenz.txt --algorithm=hooi --rank=4

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.h"
#include "core/dm2td.h"
#include "core/experiment.h"
#include "core/m2td.h"
#include "core/pf_partition.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "io/tensor_io.h"
#include "io/tucker_io.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/crc32.h"
#include "robust/failpoint.h"
#include "robust/retry.h"
#include "robust/watchdog.h"
#include "tensor/cp.h"
#include "tensor/hooi.h"
#include "tensor/tucker.h"
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "linalg/eigen.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using m2td::FlagParser;
using m2td::Result;
using m2td::Status;

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

/// Global fault-tolerance flags, stripped from argv like the obs flags so
/// every command accepts them; applied before subcommand dispatch.
struct RobustFlags {
  std::string fail_point;
  std::string checkpoint_dir;
  std::int64_t max_retries = 0;
  bool resume = false;
  /// Overall wall-clock budget; 0 = no deadline. When it expires the root
  /// CancelSource fires kDeadlineExceeded and every pipeline drains.
  double deadline_ms = 0.0;
  /// Stall watchdog soft budget per phase (leaf span); 0 = watchdog off.
  double soft_deadline_ms = 0.0;
};

RobustFlags g_robust_flags;

/// The run report under construction, when --report_out is active.
/// Subcommands feed dataset digests and seeds through the Note* helpers
/// below; main() writes the file on every exit path after dispatch.
m2td::obs::RunReport* g_report = nullptr;

/// Digests an input file into the run report (content CRC32 + size), so
/// two reports are comparable only when they read identical bytes.
void NoteDataset(const std::string& path) {
  if (g_report == nullptr) return;
  std::error_code ec;
  const std::uint64_t bytes = std::filesystem::file_size(path, ec);
  auto crc = m2td::robust::Crc32OfFile(path);
  g_report->AddDataset(path, crc.ok() ? *crc : 0, ec ? 0 : bytes);
}

void NoteSeed(std::int64_t seed) {
  if (g_report != nullptr) {
    g_report->set_seed(static_cast<std::uint64_t>(seed));
  }
}

Result<std::unique_ptr<m2td::ensemble::DynamicalSystemModel>> BuildModel(
    const std::string& system, std::int64_t resolution) {
  if (resolution < 2 || resolution > 64) {
    return Status::InvalidArgument("resolution must be in [2, 64]");
  }
  m2td::ensemble::ModelOptions options;
  options.parameter_resolution = static_cast<std::uint32_t>(resolution);
  options.time_resolution = static_cast<std::uint32_t>(resolution);
  if (system == "double_pendulum") {
    return m2td::ensemble::MakeDoublePendulumModel(options);
  }
  if (system == "triple_pendulum") {
    return m2td::ensemble::MakeTriplePendulumModel(options);
  }
  if (system == "lorenz") return m2td::ensemble::MakeLorenzModel(options);
  return Status::InvalidArgument(
      "unknown system (double_pendulum | triple_pendulum | lorenz)");
}

// Shared --init/--oversampling/--power_iters/--sketch_seed flag group for
// the subcommands that run factor solves. The values land in the
// run_report.json flag digest like every other --key=value argument.
struct InitFlags {
  std::string init = "deterministic";
  std::int64_t oversampling = 8;
  std::int64_t power_iters = 2;
  std::int64_t sketch_seed = 3;

  void Register(FlagParser& parser) {
    parser.AddString("init",
                     "factor init: deterministic | randomized (sketched)",
                     &init);
    parser.AddInt64("oversampling",
                    "randomized init: sketch columns beyond the rank",
                    &oversampling);
    parser.AddInt64("power_iters",
                    "randomized init: subspace power iterations",
                    &power_iters);
    parser.AddInt64("sketch_seed", "randomized init: Gaussian sketch seed",
                    &sketch_seed);
  }

  Result<m2td::linalg::GramFactorOptions> ToOptions() const {
    m2td::linalg::GramFactorOptions options;
    if (init == "randomized") {
      options.method = m2td::linalg::GramFactorMethod::kRandomized;
    } else if (init != "deterministic") {
      return Status::InvalidArgument(
          "--init must be 'deterministic' or 'randomized'");
    }
    if (oversampling < 0) {
      return Status::InvalidArgument("--oversampling must be >= 0");
    }
    if (power_iters < 0) {
      return Status::InvalidArgument("--power_iters must be >= 0");
    }
    options.sketch.oversampling = static_cast<std::size_t>(oversampling);
    options.sketch.power_iterations = static_cast<int>(power_iters);
    options.sketch.seed = static_cast<std::uint64_t>(sketch_seed);
    return options;
  }
};

int RunExperiment(int argc, const char* const* argv) {
  std::string system = "double_pendulum";
  std::string scheme = "select";
  std::int64_t resolution = 10;
  std::int64_t rank = 5;
  std::int64_t pivot = 0;
  std::int64_t seed = 42;
  double pivot_density = 1.0;
  double side_density = 1.0;
  double cell_density = 1.0;
  bool zero_join = false;

  FlagParser parser("m2td_cli experiment: score one scheme vs ground truth");
  parser.AddString("system", "double_pendulum | triple_pendulum | lorenz",
                   &system);
  parser.AddString(
      "scheme",
      "select | avg | concat | weighted | random | grid | slice", &scheme);
  parser.AddInt64("resolution", "grid values per mode", &resolution);
  parser.AddInt64("rank", "target decomposition rank (uniform)", &rank);
  parser.AddInt64("pivot", "pivot mode index (0 = time)", &pivot);
  parser.AddInt64("seed", "sampling seed", &seed);
  parser.AddDouble("pivot_density", "paper's P, in (0,1]", &pivot_density);
  parser.AddDouble("side_density", "paper's E, in (0,1]", &side_density);
  parser.AddDouble("cell_density", "fraction of PxE cells simulated",
                   &cell_density);
  parser.AddBool("zero_join", "use zero-join stitching", &zero_join);
  InitFlags init_flags;
  init_flags.Register(parser);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (rank < 1) return Fail(Status::InvalidArgument("--rank must be >= 1"));
  NoteSeed(seed);
  auto init = init_flags.ToOptions();
  if (!init.ok()) return Fail(init.status());

  auto model = BuildModel(system, resolution);
  if (!model.ok()) return Fail(model.status());
  auto ground_truth = m2td::ensemble::BuildFullTensor(model->get());
  if (!ground_truth.ok()) return Fail(ground_truth.status());

  Result<m2td::core::SchemeOutcome> outcome =
      Status::Internal("unreachable");
  const bool is_m2td = scheme == "select" || scheme == "avg" ||
                       scheme == "concat" || scheme == "weighted";
  if (is_m2td) {
    auto partition = m2td::core::MakePartition(
        (*model)->space().num_modes(), {static_cast<std::size_t>(pivot)});
    if (!partition.ok()) return Fail(partition.status());
    m2td::core::M2tdMethod method = m2td::core::M2tdMethod::kSelect;
    if (scheme == "avg") method = m2td::core::M2tdMethod::kAvg;
    if (scheme == "concat") method = m2td::core::M2tdMethod::kConcat;
    if (scheme == "weighted") method = m2td::core::M2tdMethod::kWeighted;
    m2td::core::SubEnsembleOptions sub_options;
    sub_options.pivot_density = pivot_density;
    sub_options.side_density = side_density;
    sub_options.cell_density = cell_density;
    sub_options.seed = static_cast<std::uint64_t>(seed);
    m2td::core::StitchOptions stitch;
    stitch.zero_join = zero_join;
    outcome = m2td::core::RunM2td(model->get(), *ground_truth, *partition,
                                  method, static_cast<std::uint64_t>(rank),
                                  sub_options, stitch, *init);
  } else {
    m2td::ensemble::ConventionalScheme conventional;
    if (scheme == "random") {
      conventional = m2td::ensemble::ConventionalScheme::kRandom;
    } else if (scheme == "grid") {
      conventional = m2td::ensemble::ConventionalScheme::kGrid;
    } else if (scheme == "slice") {
      conventional = m2td::ensemble::ConventionalScheme::kSlice;
    } else {
      return Fail(Status::InvalidArgument("unknown scheme '" + scheme + "'"));
    }
    const std::uint64_t budget =
        2ULL * resolution * resolution;  // M2TD-equivalent default
    outcome = m2td::core::RunConventional(
        model->get(), *ground_truth, conventional, budget,
        static_cast<std::uint64_t>(rank), static_cast<std::uint64_t>(seed),
        *init);
  }
  if (!outcome.ok()) return Fail(outcome.status());

  std::cout << "system:      " << system << " (res " << resolution << ")\n"
            << "scheme:      " << (*outcome).scheme << "\n"
            << "rank:        " << rank << "\n"
            << "accuracy:    " << (*outcome).accuracy << "\n"
            << "decompose:   " << (*outcome).decompose_seconds * 1e3
            << " ms\n"
            << "cells:       " << (*outcome).budget_cells << "\n"
            << "tensor nnz:  " << (*outcome).nnz << "\n";
  return 0;
}

/// Abnormal worker exit details of the last dm2td run ("worker 2 exited
/// 5 (malformed frame)"), folded into the run report's exit detail.
std::string g_worker_exit_detail;

int RunDm2td(int argc, const char* const* argv) {
  std::string system = "double_pendulum";
  std::string backend = "thread";
  std::string job_dir;
  std::int64_t resolution = 10;
  std::int64_t rank = 5;
  std::int64_t pivot = 0;
  std::int64_t workers = 4;
  std::int64_t shards = 8;
  double worker_heartbeat_ms = 50.0;
  double task_lease_ms = 30000.0;
  bool keep_job_dir = false;
  bool zero_join = false;
  std::string listen = "127.0.0.1:0";
  bool spawn_workers = true;
  double io_deadline_ms = 5000.0;
  double redial_ms = 10000.0;
  std::string net_faults;
  std::string worker_net_faults;
  bool speculative = false;
  double speculative_floor_ms = 250.0;

  FlagParser parser(
      "m2td_cli dm2td: run the distributed D-M2TD pipeline (Grams, "
      "per-pivot partial cores, core assembly)");
  parser.AddString("system", "double_pendulum | triple_pendulum | lorenz",
                   &system);
  parser.AddString("backend",
                   "thread (in-process pool) | process (real worker "
                   "processes + durable shuffle)",
                   &backend);
  parser.AddString("job_dir",
                   "process backend: shuffle scratch directory (default: "
                   "fresh temp dir, removed on success)",
                   &job_dir);
  parser.AddInt64("resolution", "grid values per mode", &resolution);
  parser.AddInt64("rank", "target decomposition rank (uniform)", &rank);
  parser.AddInt64("pivot", "pivot mode index (0 = time)", &pivot);
  parser.AddInt64("workers",
                  "worker count (threads or processes; never affects "
                  "results)",
                  &workers);
  parser.AddInt64("shards",
                  "process backend: fixed shard/task count per phase, "
                  "independent of --workers (never affects results)",
                  &shards);
  parser.AddDouble("worker_heartbeat_ms",
                   "process backend: worker heartbeat period",
                   &worker_heartbeat_ms);
  parser.AddDouble("task_lease_ms",
                   "process backend: heartbeat silence / task runtime "
                   "after which a worker is declared dead and its task "
                   "reassigned",
                   &task_lease_ms);
  parser.AddBool("keep_job_dir",
                 "keep the job directory (shuffle blobs, worker obs "
                 "exports) even on success",
                 &keep_job_dir);
  parser.AddBool("zero_join", "use zero-join stitching", &zero_join);
  parser.AddString("listen",
                   "process backend: coordinator listen address every "
                   "worker dials (host:port, port 0 = ephemeral)",
                   &listen);
  parser.AddBool("spawn_workers",
                 "process backend: fork local workers that dial back "
                 "(--nospawn_workers waits for --workers external "
                 "`m2td_worker --connect` processes instead)",
                 &spawn_workers);
  parser.AddDouble("io_deadline_ms",
                   "per-connection frame IO deadline (half-open peers "
                   "surface kDeadlineExceeded instead of hanging)",
                   &io_deadline_ms);
  parser.AddDouble("redial_ms",
                   "process backend: how long a disconnected worker "
                   "redials (capped seeded exponential backoff) before "
                   "giving up",
                   &redial_ms);
  parser.AddString("net_faults",
                   "deterministic transport fault specs armed in the "
                   "coordinator (robust/netfault.h grammar, e.g. "
                   "'drop:prob=0.05,seed=11;delay:ms=40')",
                   &net_faults);
  parser.AddString("worker_net_faults",
                   "fault specs passed to spawned workers (--net_faults "
                   "on their command line)",
                   &worker_net_faults);
  parser.AddBool("speculative",
                 "speculatively re-launch straggling tasks (runtime > "
                 "quantile of completed siblings); first committed "
                 "attempt wins, results unchanged",
                 &speculative);
  parser.AddDouble("speculative_floor_ms",
                   "minimum task runtime before speculation can trigger",
                   &speculative_floor_ms);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (rank < 1) return Fail(Status::InvalidArgument("--rank must be >= 1"));

  auto model = BuildModel(system, resolution);
  if (!model.ok()) return Fail(model.status());
  auto partition = m2td::core::MakePartition(
      (*model)->space().num_modes(), {static_cast<std::size_t>(pivot)});
  if (!partition.ok()) return Fail(partition.status());
  auto subs = m2td::core::BuildSubEnsembles(model->get(), *partition, {});
  if (!subs.ok()) return Fail(subs.status());

  m2td::core::DM2tdOptions options;
  options.method = m2td::core::M2tdMethod::kSelect;
  options.ranks = m2td::core::UniformRanks(
      **model, static_cast<std::uint64_t>(rank));
  options.num_workers = static_cast<int>(workers);
  options.num_shards = static_cast<int>(shards);
  options.stitch.zero_join = zero_join;
  if (backend == "process") {
    options.backend = m2td::core::DistBackend::kProcess;
  } else if (backend != "thread") {
    return Fail(
        Status::InvalidArgument("--backend must be thread | process"));
  }
  options.process.job_dir = job_dir;
  options.process.keep_job_dir = keep_job_dir;
  options.process.heartbeat_ms = worker_heartbeat_ms;
  options.process.task_lease_ms = task_lease_ms;
  options.process.listen = listen;
  options.process.spawn_workers = spawn_workers;
  options.process.io_deadline_ms = io_deadline_ms;
  options.process.redial_ms = redial_ms;
  options.process.net_faults = net_faults;
  options.process.worker_net_faults = worker_net_faults;
  options.process.speculation.enabled = speculative;
  options.process.speculation.floor_ms = speculative_floor_ms;
  if (g_robust_flags.max_retries > 0) {
    options.retry.max_retries = static_cast<int>(g_robust_flags.max_retries);
  }

  auto result = m2td::core::DM2tdDecompose(*subs, *partition,
                                           (*model)->space().Shape(),
                                           options);
  if (result.ok()) {
    for (const std::string& detail : result->dist.worker_exit_details) {
      if (!g_worker_exit_detail.empty()) g_worker_exit_detail += "; ";
      g_worker_exit_detail += detail;
    }
  }
  if (!result.ok()) return Fail(result.status());

  auto ground_truth = m2td::ensemble::BuildFullTensor(model->get());
  if (!ground_truth.ok()) return Fail(ground_truth.status());
  auto reconstructed = m2td::tensor::Reconstruct(result->tucker);
  if (!reconstructed.ok()) return Fail(reconstructed.status());
  const double accuracy = m2td::tensor::ReconstructionAccuracy(
      *reconstructed, *ground_truth);

  std::cout << "system:      " << system << " (res " << resolution << ")\n"
            << "backend:     " << backend << " (" << workers << " workers";
  if (backend == "process") std::cout << ", " << shards << " shards";
  std::cout << ")\n"
            << "join nnz:    " << result->join_nnz << "\n"
            << "phase 1:     " << result->phase1.TotalSeconds() * 1e3
            << " ms\n"
            << "phase 2:     " << result->phase2.TotalSeconds() * 1e3
            << " ms\n"
            << "core asm:    " << result->phase3.TotalSeconds() * 1e3
            << " ms (phase 3: partial-core gather + sum)\n"
            << "accuracy:    " << accuracy << "\n";
  if (backend == "process") {
    std::cout << "heartbeats:  " << result->dist.heartbeats << "\n"
              << "deaths:      " << result->dist.worker_deaths
              << " (tasks reassigned: " << result->dist.tasks_reassigned
              << ", map re-executions: " << result->dist.map_reexecutions
              << ")\n";
    std::cout << "network:     " << result->dist.net_connects
              << " connects, " << result->dist.net_reconnects
              << " reconnects, " << result->dist.net_disconnects
              << " disconnects\n";
    if (speculative) {
      std::cout << "speculation: " << result->dist.speculative_launched
                << " launched, " << result->dist.speculative_won << " won, "
                << result->dist.speculative_cancelled << " cancelled\n";
    }
    if (!g_worker_exit_detail.empty()) {
      std::cout << "worker exits: " << g_worker_exit_detail << "\n";
    }
  }
  return 0;
}

int RunSimulate(int argc, const char* const* argv) {
  std::string system = "double_pendulum";
  std::string scheme = "random";
  std::string output = "ensemble.txt";
  std::string format = "text";
  std::int64_t resolution = 10;
  std::int64_t budget = 100;
  std::int64_t seed = 42;

  FlagParser parser("m2td_cli simulate: sample an ensemble to a tensor file");
  parser.AddString("system", "double_pendulum | triple_pendulum | lorenz",
                   &system);
  parser.AddString("scheme", "random | grid | slice", &scheme);
  parser.AddString("output", "output path", &output);
  parser.AddString("format", "text | binary", &format);
  parser.AddInt64("resolution", "grid values per mode", &resolution);
  parser.AddInt64("budget", "simulation instances", &budget);
  parser.AddInt64("seed", "sampling seed", &seed);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  NoteSeed(seed);

  auto model = BuildModel(system, resolution);
  if (!model.ok()) return Fail(model.status());
  m2td::ensemble::ConventionalScheme conventional;
  if (scheme == "random") {
    conventional = m2td::ensemble::ConventionalScheme::kRandom;
  } else if (scheme == "grid") {
    conventional = m2td::ensemble::ConventionalScheme::kGrid;
  } else if (scheme == "slice") {
    conventional = m2td::ensemble::ConventionalScheme::kSlice;
  } else {
    return Fail(Status::InvalidArgument("unknown scheme '" + scheme + "'"));
  }
  m2td::Rng rng(static_cast<std::uint64_t>(seed));
  Result<m2td::tensor::SparseTensor> ensemble =
      Status::Internal("unreachable");
  if (!g_robust_flags.checkpoint_dir.empty()) {
    m2td::ensemble::EnsembleBuildOptions build_options;
    build_options.checkpoint_dir = g_robust_flags.checkpoint_dir;
    build_options.resume = g_robust_flags.resume;
    m2td::ensemble::EnsembleBuildReport report;
    ensemble = m2td::ensemble::BuildConventionalEnsembleRobust(
        model->get(), conventional, static_cast<std::uint64_t>(budget), &rng,
        build_options, &report);
    if (ensemble.ok()) {
      std::cout << "robust build: " << report.simulations_kept
                << " simulations kept, " << report.failed_simulations
                << " failed, " << report.replacement_draws
                << " replacement draws, " << report.batches_resumed
                << " batches resumed\n";
    }
  } else {
    ensemble = m2td::ensemble::BuildConventionalEnsemble(
        model->get(), conventional, static_cast<std::uint64_t>(budget), &rng);
  }
  if (!ensemble.ok()) return Fail(ensemble.status());

  const Status save = format == "binary"
                          ? m2td::io::SaveSparseBinary(*ensemble, output)
                          : m2td::io::SaveSparseText(*ensemble, output);
  if (!save.ok()) return Fail(save);
  std::cout << "wrote " << ensemble->NumNonZeros() << " entries (shape "
            << m2td::ShapeToString(ensemble->shape()) << ", density "
            << ensemble->Density() << ") to " << output << "\n";
  return 0;
}

Result<m2td::tensor::SparseTensor> LoadTensorAuto(const std::string& path) {
  NoteDataset(path);
  auto binary = m2td::io::LoadSparseBinary(path);
  if (binary.ok()) return binary;
  return m2td::io::LoadSparseText(path);
}

int RunDecompose(int argc, const char* const* argv) {
  std::string input;
  std::string algorithm = "hosvd";
  std::string save;
  std::int64_t rank = 5;
  std::int64_t iterations = 25;

  FlagParser parser("m2td_cli decompose: decompose a stored tensor");
  parser.AddString("input", "tensor file (text or binary)", &input);
  parser.AddString("algorithm", "hosvd | hooi | cp", &algorithm);
  parser.AddString("save", "write the Tucker decomposition here (hosvd/hooi)",
                   &save);
  parser.AddInt64("rank", "target rank (uniform)", &rank);
  parser.AddInt64("iterations", "ALS iteration cap (hooi/cp)", &iterations);
  InitFlags init_flags;
  init_flags.Register(parser);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (rank < 1) return Fail(Status::InvalidArgument("--rank must be >= 1"));
  if (input.empty()) {
    return Fail(Status::InvalidArgument("--input is required"));
  }
  auto init = init_flags.ToOptions();
  if (!init.ok()) return Fail(init.status());

  auto x = LoadTensorAuto(input);
  if (!x.ok()) return Fail(x.status());
  std::cout << "loaded " << x->NumNonZeros() << " entries, shape "
            << m2td::ShapeToString(x->shape()) << "\n";

  auto maybe_save = [&save](const m2td::tensor::TuckerDecomposition& tucker)
      -> Status {
    if (save.empty()) return Status::OK();
    M2TD_RETURN_IF_ERROR(m2td::io::SaveTucker(tucker, save));
    std::cout << "decomposition written to " << save << "\n";
    return Status::OK();
  };

  const m2td::tensor::DenseTensor dense = x->ToDense();
  const std::vector<std::uint64_t> ranks(x->num_modes(),
                                         static_cast<std::uint64_t>(rank));
  double fit = 0.0;
  if (algorithm == "hosvd") {
    m2td::tensor::HosvdOptions hosvd;
    hosvd.factor = *init;
    auto tucker = m2td::tensor::HosvdSparse(*x, ranks, hosvd);
    if (!tucker.ok()) return Fail(tucker.status());
    auto reconstructed = m2td::tensor::Reconstruct(*tucker);
    if (!reconstructed.ok()) return Fail(reconstructed.status());
    fit = m2td::tensor::ReconstructionAccuracy(*reconstructed, dense);
    const Status saved = maybe_save(*tucker);
    if (!saved.ok()) return Fail(saved);
  } else if (algorithm == "hooi") {
    m2td::tensor::HooiOptions options;
    options.max_iterations = static_cast<int>(iterations);
    if (init->method == m2td::linalg::GramFactorMethod::kRandomized) {
      options.init = m2td::tensor::HooiInit::kRandomized;
      options.sketch = init->sketch;
    }
    m2td::tensor::HooiInfo info;
    auto tucker = m2td::tensor::HooiSparse(*x, ranks, options, &info);
    if (!tucker.ok()) return Fail(tucker.status());
    std::cout << "hooi: " << info.iterations << " sweeps, converged="
              << (info.converged ? "yes" : "no") << "\n";
    if (info.interrupted != m2td::robust::CancelCause::kNone) {
      // Best-so-far drain: save and report what the completed sweeps
      // produced, then surface the cancellation — the token has fired, so
      // further pooled work (reconstruction) would only fail against it.
      std::cout << "hooi: interrupted ("
                << m2td::robust::CancelCauseName(info.interrupted)
                << "); best decomposition from " << info.iterations
                << " completed sweeps, fit (vs input norm) " << info.fit
                << "\n";
      const Status saved = maybe_save(*tucker);
      if (!saved.ok()) return Fail(saved);
      return Fail(m2td::robust::StatusFromCause(info.interrupted));
    }
    auto reconstructed = m2td::tensor::Reconstruct(*tucker);
    if (!reconstructed.ok()) return Fail(reconstructed.status());
    fit = m2td::tensor::ReconstructionAccuracy(*reconstructed, dense);
    const Status saved = maybe_save(*tucker);
    if (!saved.ok()) return Fail(saved);
  } else if (algorithm == "cp") {
    m2td::tensor::CpOptions options;
    options.max_iterations = static_cast<int>(iterations);
    m2td::tensor::CpInfo info;
    auto cp = m2td::tensor::CpAlsSparse(
        *x, static_cast<std::uint64_t>(rank), options, &info);
    if (!cp.ok()) return Fail(cp.status());
    std::cout << "cp-als: " << info.iterations << " sweeps, converged="
              << (info.converged ? "yes" : "no") << "\n";
    auto reconstructed = m2td::tensor::CpReconstruct(*cp, x->shape());
    if (!reconstructed.ok()) return Fail(reconstructed.status());
    fit = m2td::tensor::ReconstructionAccuracy(*reconstructed, dense);
  } else {
    return Fail(Status::InvalidArgument("unknown algorithm"));
  }
  std::cout << "fit (1 - relative error vs stored tensor): " << fit << "\n";
  return 0;
}

int RunInfo(int argc, const char* const* argv) {
  std::string input;
  FlagParser parser("m2td_cli info: summarize a tensor file");
  parser.AddString("input", "tensor file (text or binary)", &input);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (input.empty() && !positional->empty()) input = positional->front();
  if (input.empty()) {
    return Fail(Status::InvalidArgument("--input is required"));
  }
  auto x = LoadTensorAuto(input);
  if (!x.ok()) return Fail(x.status());
  std::cout << "shape:   " << m2td::ShapeToString(x->shape()) << "\n"
            << "modes:   " << x->num_modes() << "\n"
            << "nnz:     " << x->NumNonZeros() << "\n"
            << "density: " << x->Density() << "\n"
            << "norm:    " << x->FrobeniusNorm() << "\n";
  return 0;
}

int RunQuery(int argc, const char* const* argv) {
  std::string input;
  std::string cell;
  FlagParser parser(
      "m2td_cli query: evaluate reconstruction cells from a saved Tucker "
      "decomposition (see 'decompose --save')");
  parser.AddString("input", "decomposition file (.tucker)", &input);
  parser.AddString("cell",
                   "comma-separated cell indices, e.g. 1,2,0,3,4; "
                   "repeatable via positional args",
                   &cell);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (input.empty()) {
    return Fail(Status::InvalidArgument("--input is required"));
  }
  NoteDataset(input);
  auto tucker = m2td::io::LoadTucker(input);
  if (!tucker.ok()) return Fail(tucker.status());
  std::cout << "decomposition: " << tucker->factors.size()
            << " modes, core " << m2td::ShapeToString(tucker->core.shape())
            << ", reconstructs "
            << m2td::ShapeToString(tucker->ReconstructedShape()) << "\n";

  std::vector<std::string> cell_specs = *positional;
  if (!cell.empty()) cell_specs.insert(cell_specs.begin(), cell);
  if (cell_specs.empty()) {
    return Fail(Status::InvalidArgument(
        "give at least one cell, e.g. --cell=1,2,0,3,4"));
  }
  for (const std::string& spec : cell_specs) {
    std::vector<std::uint32_t> idx;
    for (const std::string& part : m2td::Split(spec, ',')) {
      char* end = nullptr;
      const long value = std::strtol(part.c_str(), &end, 10);
      if (end == part.c_str() || *end != '\0' || value < 0) {
        return Fail(Status::InvalidArgument("bad cell index '" + part +
                                            "' in '" + spec + "'"));
      }
      idx.push_back(static_cast<std::uint32_t>(value));
    }
    auto value = m2td::tensor::ReconstructCell(*tucker, idx);
    if (!value.ok()) return Fail(value.status());
    std::cout << "X~(" << spec << ") = " << *value << "\n";
  }
  return 0;
}

int RunAnalyze(int argc, const char* const* argv) {
  std::string system = "double_pendulum";
  std::int64_t resolution = 10;
  std::int64_t rank = 3;
  std::int64_t pivot = 0;
  std::int64_t top_k = 3;

  FlagParser parser(
      "m2td_cli analyze: run M2TD-SELECT and report latent patterns, core "
      "interactions, and residual outliers");
  parser.AddString("system", "double_pendulum | triple_pendulum | lorenz",
                   &system);
  parser.AddInt64("resolution", "grid values per mode", &resolution);
  parser.AddInt64("rank", "target decomposition rank", &rank);
  parser.AddInt64("pivot", "pivot mode index (0 = time)", &pivot);
  parser.AddInt64("top_k", "entries per pattern / outliers reported",
                  &top_k);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (rank < 1) return Fail(Status::InvalidArgument("--rank must be >= 1"));
  if (top_k <= 0) return Fail(Status::InvalidArgument("--top_k must be > 0"));

  auto model = BuildModel(system, resolution);
  if (!model.ok()) return Fail(model.status());
  auto partition = m2td::core::MakePartition(
      (*model)->space().num_modes(), {static_cast<std::size_t>(pivot)});
  if (!partition.ok()) return Fail(partition.status());
  auto subs = m2td::core::BuildSubEnsembles(model->get(), *partition, {});
  if (!subs.ok()) return Fail(subs.status());
  m2td::core::M2tdOptions options;
  options.ranks = m2td::core::UniformRanks(**model,
                                           static_cast<std::uint64_t>(rank));
  auto result = m2td::core::M2tdDecompose(*subs, *partition,
                                          (*model)->space().Shape(), options);
  if (!result.ok()) return Fail(result.status());

  auto patterns = m2td::core::ExtractModePatterns(
      result->tucker, static_cast<std::size_t>(top_k));
  if (!patterns.ok()) return Fail(patterns.status());
  std::cout << "Latent patterns:\n"
            << m2td::core::DescribePatterns(*patterns, (*model)->space());

  auto interactions = m2td::core::TopCoreInteractions(
      result->tucker, static_cast<std::size_t>(top_k));
  if (!interactions.ok()) return Fail(interactions.status());
  std::cout << "\nStrongest core interactions:\n";
  for (const auto& interaction : *interactions) {
    std::cout << "  (";
    for (std::size_t m = 0; m < interaction.component_indices.size(); ++m) {
      std::cout << (m ? "," : "") << interaction.component_indices[m];
    }
    std::cout << ") strength " << interaction.strength << "\n";
  }

  auto join = m2td::core::JeStitch(*subs, *partition,
                                   (*model)->space().Shape(), {});
  if (!join.ok()) return Fail(join.status());
  auto outliers = m2td::core::ResidualOutliers(
      result->tucker, *join, static_cast<std::size_t>(top_k));
  if (!outliers.ok()) return Fail(outliers.status());
  std::cout << "\nWorst-explained cells:\n";
  const auto& space = (*model)->space();
  for (const auto& outlier : *outliers) {
    std::cout << "  ";
    for (std::size_t m = 0; m < outlier.indices.size(); ++m) {
      std::cout << (m ? " " : "") << space.def(m).name << "="
                << space.Value(m, outlier.indices[m]);
    }
    std::cout << "  residual " << outlier.residual << "\n";
  }
  return 0;
}

void PrintTopLevelUsage() {
  std::cout <<
      "m2td_cli <command> [flags]\n"
      "commands:\n"
      "  experiment  score a sampling+decomposition scheme vs ground truth\n"
      "  dm2td       distributed D-M2TD (--backend=thread |\n"
      "              process; process spawns --workers m2td_worker\n"
      "              processes with a durable shuffle and worker-death\n"
      "              recovery — see --worker_heartbeat_ms, --task_lease_ms,\n"
      "              --listen, --speculative, --net_faults)\n"
      "  simulate    sample an ensemble into a tensor file\n"
      "  decompose   decompose a stored tensor (hosvd | hooi | cp)\n"
      "  analyze     M2TD patterns / interactions / outliers report\n"
      "  query       evaluate cells of a saved Tucker decomposition\n"
      "  info        summarize a tensor file\n"
      "global flags (any command):\n"
      "  --trace_out=<file>    write a Chrome trace (chrome://tracing,\n"
      "                        Perfetto) of the run\n"
      "  --trace_summary       print an indented per-span wall/CPU/alloc\n"
      "                        summary plus per-histogram p50/p95/p99\n"
      "  --metrics_out=<file>  write counters/gauges/histograms as JSON\n"
      "  --report_out=<file>   write a structured run report (schema-\n"
      "                        versioned JSON: build info, flags, dataset\n"
      "                        digests, per-phase wall/CPU/alloc totals,\n"
      "                        RSS time series, metrics, exit status);\n"
      "                        default run_report.json, empty disables\n"
      "  --resource_sample_ms=<n>  resource sampler period (RSS, faults,\n"
      "                        CPU split, thread count; default 20, 0 off)\n"
      "  --metrics_snapshot_ms=<n>  rewrite an OpenMetrics snapshot file\n"
      "                        every n ms while running (default 0 = off)\n"
      "  --metrics_snapshot_out=<file>  snapshot destination (default\n"
      "                        metrics.prom)\n"
      "  --max_retries=<n>     retry transient IO/task failures up to n\n"
      "                        times (capped exponential backoff)\n"
      "  --fail_point=<spec>   arm a fault-injection point, e.g.\n"
      "                        shuffle_store.read_blob:times=1 or\n"
      "                        mapreduce.reduce_task:prob=0.2,seed=7;\n"
      "                        repeatable, ';'-separated; the\n"
      "                        M2TD_FAILPOINTS env var is also honored\n"
      "  --checkpoint_dir=<d>  journal simulate progress under d (resumable)\n"
      "  --resume              continue from an existing checkpoint journal\n"
      "  --deadline_ms=<ms>    overall wall-clock budget; on expiry the run\n"
      "                        drains gracefully (iterative decompositions\n"
      "                        report best-so-far, checkpoints flush) and\n"
      "                        exits with a DeadlineExceeded error\n"
      "  --soft_deadline_ms=<ms> stall watchdog: report any phase older\n"
      "                        than ms (trace instant + stack dump) without\n"
      "                        cancelling; SIGINT/SIGTERM also drain\n"
      "                        gracefully (press twice to exit at once)\n"
      "  --threads=<n>         size of the shared kernel thread pool\n"
      "                        (default: hardware concurrency; 1 = serial;\n"
      "                        results are bit-identical for any value —\n"
      "                        see docs/PERFORMANCE.md)\n"
      "  --eigen_method=<m>    symmetric eigensolver for every Gram solve:\n"
      "                        jacobi (default, bit-exact oracle) or\n"
      "                        tridiagonal_ql (Householder + implicit-shift\n"
      "                        QL, several times faster, reassociates fp\n"
      "                        sums)\n"
      "run '<command> --help' for per-command flags\n";
}

/// Global observability flags, stripped from argv before subcommand
/// dispatch so every command accepts them at any position.
struct ObsFlags {
  std::string trace_out;
  std::string metrics_out;
  /// Structured run report destination; empty disables. Defaults on:
  /// every CLI run leaves a run_report.json beside it (tracing and
  /// metrics are force-enabled so the report has per-phase data).
  std::string report_out = "run_report.json";
  /// OpenMetrics snapshot file, rewritten every --metrics_snapshot_ms.
  std::string metrics_snapshot_out = "metrics.prom";
  bool trace_summary = false;
  /// 0 = not set; pool defaults to hardware concurrency.
  long threads = 0;
  /// Resource sampler period; 0 disables the sampler thread.
  long resource_sample_ms = 20;
  /// 0 = periodic OpenMetrics snapshots off.
  long metrics_snapshot_ms = 0;
  /// Symmetric eigensolver for every Gram solve; empty keeps the
  /// process default (jacobi).
  std::string eigen_method;
};

ObsFlags ExtractObsFlags(int argc, char** argv,
                         std::vector<char*>* remaining) {
  ObsFlags flags;
  const std::string_view trace_prefix = "--trace_out=";
  const std::string_view metrics_prefix = "--metrics_out=";
  const std::string_view report_prefix = "--report_out=";
  const std::string_view sample_prefix = "--resource_sample_ms=";
  const std::string_view snapshot_ms_prefix = "--metrics_snapshot_ms=";
  const std::string_view snapshot_out_prefix = "--metrics_snapshot_out=";
  const std::string_view retries_prefix = "--max_retries=";
  const std::string_view failpoint_prefix = "--fail_point=";
  const std::string_view checkpoint_prefix = "--checkpoint_dir=";
  const std::string_view threads_prefix = "--threads=";
  const std::string_view deadline_prefix = "--deadline_ms=";
  const std::string_view soft_deadline_prefix = "--soft_deadline_ms=";
  const std::string_view eigen_method_prefix = "--eigen_method=";
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, trace_prefix.size()) == trace_prefix) {
      flags.trace_out = std::string(arg.substr(trace_prefix.size()));
    } else if (arg.substr(0, metrics_prefix.size()) == metrics_prefix) {
      flags.metrics_out = std::string(arg.substr(metrics_prefix.size()));
    } else if (arg.substr(0, report_prefix.size()) == report_prefix) {
      flags.report_out = std::string(arg.substr(report_prefix.size()));
    } else if (arg.substr(0, sample_prefix.size()) == sample_prefix) {
      flags.resource_sample_ms = std::strtol(
          std::string(arg.substr(sample_prefix.size())).c_str(), nullptr, 10);
    } else if (arg.substr(0, snapshot_ms_prefix.size()) ==
               snapshot_ms_prefix) {
      flags.metrics_snapshot_ms = std::strtol(
          std::string(arg.substr(snapshot_ms_prefix.size())).c_str(), nullptr,
          10);
    } else if (arg.substr(0, snapshot_out_prefix.size()) ==
               snapshot_out_prefix) {
      flags.metrics_snapshot_out =
          std::string(arg.substr(snapshot_out_prefix.size()));
    } else if (arg == "--trace_summary" || arg == "--trace_summary=true") {
      flags.trace_summary = true;
    } else if (arg == "--trace_summary=false") {
      flags.trace_summary = false;
    } else if (arg.substr(0, retries_prefix.size()) == retries_prefix) {
      g_robust_flags.max_retries =
          std::strtol(std::string(arg.substr(retries_prefix.size())).c_str(),
                      nullptr, 10);
    } else if (arg.substr(0, failpoint_prefix.size()) == failpoint_prefix) {
      if (!g_robust_flags.fail_point.empty()) {
        g_robust_flags.fail_point += ";";
      }
      g_robust_flags.fail_point +=
          std::string(arg.substr(failpoint_prefix.size()));
    } else if (arg.substr(0, checkpoint_prefix.size()) == checkpoint_prefix) {
      g_robust_flags.checkpoint_dir =
          std::string(arg.substr(checkpoint_prefix.size()));
    } else if (arg == "--resume" || arg == "--resume=true") {
      g_robust_flags.resume = true;
    } else if (arg == "--resume=false") {
      g_robust_flags.resume = false;
    } else if (arg.substr(0, threads_prefix.size()) == threads_prefix) {
      flags.threads = std::strtol(
          std::string(arg.substr(threads_prefix.size())).c_str(), nullptr,
          10);
    } else if (arg.substr(0, deadline_prefix.size()) == deadline_prefix) {
      g_robust_flags.deadline_ms = std::strtod(
          std::string(arg.substr(deadline_prefix.size())).c_str(), nullptr);
    } else if (arg.substr(0, soft_deadline_prefix.size()) ==
               soft_deadline_prefix) {
      g_robust_flags.soft_deadline_ms = std::strtod(
          std::string(arg.substr(soft_deadline_prefix.size())).c_str(),
          nullptr);
    } else if (arg.substr(0, eigen_method_prefix.size()) ==
               eigen_method_prefix) {
      flags.eigen_method =
          std::string(arg.substr(eigen_method_prefix.size()));
    } else {
      remaining->push_back(argv[i]);
    }
  }
  return flags;
}

int ExportObservability(const ObsFlags& flags) {
  int status = 0;
  if (!flags.trace_out.empty()) {
    const Status exported =
        m2td::obs::Tracer::Get().ExportChromeTrace(flags.trace_out);
    if (!exported.ok()) {
      std::cerr << "error: " << exported << "\n";
      status = 1;
    } else {
      std::cerr << "trace written to " << flags.trace_out << "\n";
    }
  }
  if (flags.trace_summary) {
    m2td::obs::Tracer::Get().WriteTextSummary(std::cerr);
    m2td::obs::WriteHistogramSummary(std::cerr);
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::cerr << "error: cannot write metrics to " << flags.metrics_out
                << "\n";
      status = 1;
    } else {
      m2td::obs::WriteMetricsJson(out);
      std::cerr << "metrics written to " << flags.metrics_out << "\n";
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  const ObsFlags obs_flags = ExtractObsFlags(argc, argv, &args);
  if (!obs_flags.trace_out.empty() || obs_flags.trace_summary) {
    m2td::obs::SetTracingEnabled(true);
  }
  if (!obs_flags.metrics_out.empty() || obs_flags.metrics_snapshot_ms > 0) {
    m2td::obs::SetMetricsEnabled(true);
  }
  if (obs_flags.resource_sample_ms < 0 || obs_flags.metrics_snapshot_ms < 0) {
    return Fail(Status::InvalidArgument(
        "--resource_sample_ms / --metrics_snapshot_ms must be >= 0"));
  }
  // The run report needs per-phase spans and a metrics snapshot, so an
  // active --report_out force-enables both collectors (they stay cheap:
  // the CLI is a batch tool, not a latency-critical server).
  m2td::obs::RunReport report("m2td_cli");
  if (!obs_flags.report_out.empty()) {
    m2td::obs::SetTracingEnabled(true);
    m2td::obs::SetMetricsEnabled(true);
    g_report = &report;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const std::size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        report.AddFlag(std::string(arg.substr(2)), "true");
      } else {
        report.AddFlag(std::string(arg.substr(2, eq - 2)),
                       std::string(arg.substr(eq + 1)));
      }
    }
  }
  if (obs_flags.threads < 0) {
    return Fail(Status::InvalidArgument("--threads must be >= 1"));
  }
  if (obs_flags.threads > 0) {
    m2td::parallel::SetGlobalThreads(static_cast<int>(obs_flags.threads));
  }
  if (!obs_flags.eigen_method.empty()) {
    m2td::linalg::EigenMethod method;
    if (!m2td::linalg::ParseEigenMethod(obs_flags.eigen_method, &method)) {
      return Fail(Status::InvalidArgument(
          "--eigen_method must be 'jacobi' or 'tridiagonal_ql'"));
    }
    m2td::linalg::SetDefaultEigenMethod(method);
  }
  const Status env_armed = m2td::robust::ArmFailpointsFromEnv();
  if (!env_armed.ok()) return Fail(env_armed);
  if (!g_robust_flags.fail_point.empty()) {
    const Status armed =
        m2td::robust::ArmFailpointsFromString(g_robust_flags.fail_point);
    if (!armed.ok()) return Fail(armed);
    // Spawned D-M2TD workers arm only M2TD_FAILPOINTS, so hand them the
    // flag's specs through the environment they inherit. Later specs
    // re-arm earlier ones of the same name, as in this process.
    std::string inherited = g_robust_flags.fail_point;
    if (const char* env = std::getenv("M2TD_FAILPOINTS");
        env != nullptr && *env != '\0') {
      inherited = std::string(env) + ";" + inherited;
    }
    ::setenv("M2TD_FAILPOINTS", inherited.c_str(), 1);
  }
  if (g_robust_flags.max_retries < 0) {
    return Fail(Status::InvalidArgument("--max_retries must be >= 0"));
  }
  if (g_robust_flags.max_retries > 0) {
    m2td::robust::RetryPolicy policy;
    policy.max_retries = static_cast<int>(g_robust_flags.max_retries);
    m2td::robust::SetGlobalRetryPolicy(policy);
  }

  if (g_robust_flags.deadline_ms < 0 || g_robust_flags.soft_deadline_ms < 0) {
    return Fail(Status::InvalidArgument(
        "--deadline_ms / --soft_deadline_ms must be >= 0"));
  }

  if (args.size() < 2) {
    PrintTopLevelUsage();
    return 1;
  }
  const std::string command = args[1];
  const int sub_argc = static_cast<int>(args.size()) - 2;
  const char* const* sub_argv = args.data() + 2;
  report.set_command(command);

  // Root cancellation: --deadline_ms bounds the whole run, and a first
  // SIGINT/SIGTERM trips the same source for graceful drain (checkpoints
  // flush, trace/metrics below are still written; a second signal exits
  // immediately).
  m2td::robust::CancelSource root_source(
      g_robust_flags.deadline_ms > 0
          ? m2td::robust::Deadline::AfterMillis(g_robust_flags.deadline_ms)
          : m2td::robust::Deadline::Infinite());
  if (!m2td::robust::InstallCancelOnSignal(root_source)) {
    std::cerr << "warning: could not install signal handlers\n";
  }
  m2td::robust::Watchdog watchdog([&] {
    m2td::robust::WatchdogOptions options;
    options.soft_budget_ms = g_robust_flags.soft_deadline_ms;
    options.source = &root_source;
    options.queue_depth_fn = [] {
      return m2td::parallel::GlobalPool().QueueDepth();
    };
    return options;
  }());
  if (g_robust_flags.soft_deadline_ms > 0) watchdog.Start();

  // Background resource profile: RSS / fault / CPU-split / thread-count
  // series for the trace's counter tracks and the run report. Tied into
  // the root cancel source so a drain stops the thread cooperatively.
  m2td::obs::ResourceSampler sampler;
  if (obs_flags.resource_sample_ms > 0 &&
      (g_report != nullptr || m2td::obs::TracingEnabled() ||
       m2td::obs::MetricsEnabled())) {
    m2td::obs::ResourceSamplerOptions sampler_options;
    sampler_options.interval_ms =
        static_cast<int>(obs_flags.resource_sample_ms);
    const m2td::robust::CancelToken sampler_token = root_source.token();
    sampler_options.cancelled = [sampler_token] {
      return sampler_token.IsCancelled();
    };
    sampler.Start(std::move(sampler_options));
  }
  m2td::obs::MetricsSnapshotter snapshotter;
  if (obs_flags.metrics_snapshot_ms > 0) {
    m2td::obs::MetricsSnapshotterOptions snapshot_options;
    snapshot_options.path = obs_flags.metrics_snapshot_out;
    snapshot_options.interval_ms =
        static_cast<int>(obs_flags.metrics_snapshot_ms);
    const m2td::robust::CancelToken snapshot_token = root_source.token();
    snapshot_options.cancelled = [snapshot_token] {
      return snapshot_token.IsCancelled();
    };
    snapshotter.Start(std::move(snapshot_options));
  }

  int code = 0;
  {
    m2td::robust::CancelScope scope(root_source.token());
    try {
      if (command == "experiment") {
        code = RunExperiment(sub_argc, sub_argv);
      } else if (command == "simulate") {
        code = RunSimulate(sub_argc, sub_argv);
      } else if (command == "dm2td") {
        code = RunDm2td(sub_argc, sub_argv);
      } else if (command == "decompose") {
        code = RunDecompose(sub_argc, sub_argv);
      } else if (command == "analyze") {
        code = RunAnalyze(sub_argc, sub_argv);
      } else if (command == "query") {
        code = RunQuery(sub_argc, sub_argv);
      } else if (command == "info") {
        code = RunInfo(sub_argc, sub_argv);
      } else if (command == "--help" || command == "-h" ||
                 command == "help") {
        PrintTopLevelUsage();
        return 0;
      } else {
        std::cerr << "unknown command '" << command << "'\n";
        PrintTopLevelUsage();
        return 1;
      }
    } catch (const m2td::robust::CancelledError& error) {
      // A cancelled pooled kernel unwound past a subcommand that predates
      // the Status channel; drain gracefully all the same.
      code = Fail(error.ToStatus());
    }
  }
  watchdog.Stop();
  sampler.Stop();
  snapshotter.Stop();
  const int obs_code = ExportObservability(obs_flags);
  int report_code = 0;
  if (g_report != nullptr) {
    report.SetResourceSamples(sampler.Samples());
    const bool cancelled = root_source.token().IsCancelled();
    report.SetExit(code,
                   code == 0 ? "ok" : (cancelled ? "cancelled" : "error"),
                   cancelled
                       ? m2td::robust::CancelCauseName(
                             root_source.token().cause())
                       : g_worker_exit_detail);
    const Status written = report.WriteFile(obs_flags.report_out);
    if (!written.ok()) {
      std::cerr << "error: " << written << "\n";
      report_code = 1;
    } else {
      std::cerr << "run report written to " << obs_flags.report_out << "\n";
    }
  }
  if (code != 0) return code;
  return obs_code != 0 ? obs_code : report_code;
}
