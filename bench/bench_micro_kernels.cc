// Micro-benchmarks for the sparse tensor and linear-algebra kernels that
// dominate M2TD's runtime: Gram accumulation from COO, the Jacobi and QL
// eigensolvers, sparse TTM / core recovery, HOSVD, sorting/coalescing,
// and JE-stitching.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "bench_common.h"
#include "core/je_stitch.h"
#include "core/pf_partition.h"
#include "linalg/eigen.h"
#include "parallel/thread_pool.h"
#include "sim/lorenz.h"
#include "sim/pendulum.h"
#include "tensor/dense_tensor.h"
#include "tensor/matricize.h"
#include "tensor/sparse_tensor.h"
#include "tensor/ttm.h"
#include "tensor/tucker.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using m2td::Rng;
using m2td::linalg::Matrix;
using m2td::tensor::SparseTensor;

SparseTensor MakeSparse(std::uint64_t dim, std::size_t modes,
                        std::uint64_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(std::vector<std::uint64_t>(modes, dim));
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t e = 0; e < nnz; ++e) {
    for (std::size_t m = 0; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(dim));
    }
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  return x;
}

// Ensemble-regime tensor: fully sampled fibers along mode 0 (the time
// mode in the paper's simulation ensembles), sparse across the remaining
// modes. This is the shape the CSF SIMD kernels target — long contiguous
// leaf runs — as opposed to MakeSparse's uniform scatter.
SparseTensor MakeFiberDense(std::uint64_t dim, std::size_t modes,
                            std::uint64_t fibers, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(std::vector<std::uint64_t>(modes, dim));
  std::vector<std::uint32_t> idx(modes);
  for (std::uint64_t f = 0; f < fibers; ++f) {
    for (std::size_t m = 1; m < modes; ++m) {
      idx[m] = static_cast<std::uint32_t>(rng.UniformInt(dim));
    }
    for (std::uint64_t i = 0; i < dim; ++i) {
      idx[0] = static_cast<std::uint32_t>(i);
      x.AppendEntry(idx, rng.Gaussian());
    }
  }
  x.SortAndCoalesce();
  return x;
}

Matrix RandomFactor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix u(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) u(i, j) = rng.Gaussian();
  }
  return u;
}

void BM_ModeGram(benchmark::State& state) {
  const std::uint64_t dim = state.range(0);
  const std::uint64_t nnz = state.range(1);
  SparseTensor x = MakeSparse(dim, 3, nnz, 11);
  for (auto _ : state) {
    auto gram = m2td::tensor::ModeGram(x, 0);
    benchmark::DoNotOptimize(gram);
  }
  state.SetItemsProcessed(state.iterations() * x.NumNonZeros());
}
BENCHMARK(BM_ModeGram)->Args({16, 1000})->Args({16, 10000})->Args({64, 10000});

// One symmetric eigensolve per iteration of a Gaussian n x n input; 96
// is the time-mode Gram of the long_horizon e2e workload.
void RunEigenBenchmark(benchmark::State& state,
                       m2td::linalg::EigenMethod method) {
  const std::size_t n = state.range(0);
  Rng rng(3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.Gaussian();
    }
  }
  m2td::linalg::EigenOptions options;
  options.method = method;
  for (auto _ : state) {
    auto eig = m2td::linalg::SymmetricEigen(a, options);
    benchmark::DoNotOptimize(eig);
  }
}

void BM_JacobiEigen(benchmark::State& state) {
  RunEigenBenchmark(state, m2td::linalg::EigenMethod::kJacobi);
}
BENCHMARK(BM_JacobiEigen)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_QlEigen(benchmark::State& state) {
  RunEigenBenchmark(state, m2td::linalg::EigenMethod::kTridiagonalQL);
}
BENCHMARK(BM_QlEigen)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_SparseModeProduct(benchmark::State& state) {
  const std::uint64_t nnz = state.range(0);
  SparseTensor x = MakeSparse(16, 4, nnz, 17);
  Matrix u = RandomFactor(16, 5, 19);
  for (auto _ : state) {
    auto y = m2td::tensor::SparseModeProduct(x, u, 0, true);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * x.NumNonZeros());
}
BENCHMARK(BM_SparseModeProduct)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CoreFromSparse(benchmark::State& state) {
  const std::uint64_t nnz = state.range(0);
  SparseTensor x = MakeSparse(12, 5, nnz, 23);
  std::vector<Matrix> factors;
  for (int m = 0; m < 5; ++m) factors.push_back(RandomFactor(12, 5, 29 + m));
  for (auto _ : state) {
    auto core = m2td::tensor::CoreFromSparse(x, factors);
    benchmark::DoNotOptimize(core);
  }
}
BENCHMARK(BM_CoreFromSparse)->Arg(10000)->Arg(50000);

void BM_HosvdSparse(benchmark::State& state) {
  const std::uint64_t nnz = state.range(0);
  SparseTensor x = MakeSparse(12, 5, nnz, 31);
  const std::vector<std::uint64_t> ranks(5, 5);
  for (auto _ : state) {
    auto tucker = m2td::tensor::HosvdSparse(x, ranks);
    benchmark::DoNotOptimize(tucker);
  }
}
BENCHMARK(BM_HosvdSparse)->Arg(10000)->Arg(50000);

void BM_SortAndCoalesce(benchmark::State& state) {
  const std::uint64_t nnz = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(37);
    SparseTensor x(std::vector<std::uint64_t>(4, 20));
    std::vector<std::uint32_t> idx(4);
    for (std::uint64_t e = 0; e < nnz; ++e) {
      for (std::size_t m = 0; m < 4; ++m) {
        idx[m] = static_cast<std::uint32_t>(rng.UniformInt(20));
      }
      x.AppendEntry(idx, 1.0);
    }
    state.ResumeTiming();
    x.SortAndCoalesce();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
}
BENCHMARK(BM_SortAndCoalesce)->Arg(10000)->Arg(100000);

void BM_JeStitch(benchmark::State& state) {
  // Full-density 1-pivot stitch over a res^5 space.
  const std::uint64_t res = state.range(0);
  m2td::core::PfPartition partition;
  partition.pivot_modes = {0};
  partition.side1_modes = {1, 2};
  partition.side2_modes = {3, 4};
  m2td::core::SubEnsembles subs;
  Rng rng(41);
  subs.x1 = SparseTensor({res, res, res});
  subs.x2 = SparseTensor({res, res, res});
  std::vector<std::uint32_t> idx(3);
  for (std::uint32_t p = 0; p < res; ++p) {
    for (std::uint32_t a = 0; a < res; ++a) {
      for (std::uint32_t b = 0; b < res; ++b) {
        idx = {p, a, b};
        subs.x1.AppendEntry(idx, rng.Gaussian());
        subs.x2.AppendEntry(idx, rng.Gaussian());
      }
    }
  }
  subs.x1.SortAndCoalesce();
  subs.x2.SortAndCoalesce();
  const std::vector<std::uint64_t> shape(5, res);
  for (auto _ : state) {
    auto join = m2td::core::JeStitch(subs, partition, shape);
    benchmark::DoNotOptimize(join);
  }
  state.SetItemsProcessed(state.iterations() * res * res * res * res * res);
}
BENCHMARK(BM_JeStitch)->Arg(6)->Arg(10);

void BM_DoublePendulumSimulation(benchmark::State& state) {
  // The paper quotes ~0.66 ms per double-pendulum simulation; this
  // measures one full trajectory (RK4, 90 steps, 10 samples) on the
  // from-scratch integrator.
  auto pendulum = m2td::sim::ChainPendulum::Create({1.0, 1.5});
  M2TD_CHECK(pendulum.ok());
  m2td::sim::Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 90;
  options.record_every = 10;
  const std::vector<double> initial = pendulum->InitialState({0.8, -0.5});
  for (auto _ : state) {
    auto trajectory = m2td::sim::IntegrateRk4(*pendulum, initial, options);
    benchmark::DoNotOptimize(trajectory);
  }
}
BENCHMARK(BM_DoublePendulumSimulation);

void BM_TriplePendulumSimulation(benchmark::State& state) {
  auto pendulum =
      m2td::sim::ChainPendulum::Create({1.0, 1.0, 1.0}, 9.81, 0.2);
  M2TD_CHECK(pendulum.ok());
  m2td::sim::Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 90;
  options.record_every = 10;
  const std::vector<double> initial =
      pendulum->InitialState({0.8, -0.5, 0.3});
  for (auto _ : state) {
    auto trajectory = m2td::sim::IntegrateRk4(*pendulum, initial, options);
    benchmark::DoNotOptimize(trajectory);
  }
}
BENCHMARK(BM_TriplePendulumSimulation);

void BM_LorenzSimulation(benchmark::State& state) {
  m2td::sim::LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  m2td::sim::Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 90;
  options.record_every = 10;
  const std::vector<double> initial = {1.0, 1.0, 25.0};
  for (auto _ : state) {
    auto trajectory = m2td::sim::IntegrateRk4(lorenz, initial, options);
    benchmark::DoNotOptimize(trajectory);
  }
}
BENCHMARK(BM_LorenzSimulation);

m2td::tensor::DenseTensor MakeDense(const std::vector<std::uint64_t>& shape,
                                    std::uint64_t seed) {
  Rng rng(seed);
  m2td::tensor::DenseTensor x(shape);
  for (std::uint64_t i = 0; i < x.NumElements(); ++i) {
    x.flat(i) = rng.Gaussian();
  }
  return x;
}

/// Thread-count sweep over the two pool-parallel hot kernels (dense TTM
/// and matricization). Reports per-thread-count wall seconds plus the
/// speedup relative to --threads=1 into BENCH_micro_kernels.json. On a
/// machine whose core count is below the sweep point, speedup saturates
/// at ~1.0 — the JSON records what this box can actually do.
void RunThreadSweep(m2td::bench::BenchJson* json) {
  const m2td::tensor::DenseTensor x = MakeDense({48, 48, 48}, 53);
  const Matrix u = RandomFactor(12, 48, 59);

  std::cout << "\nthread sweep (dense TTM 48^3 x12, matricize 48^3):\n";
  double ttm_base = 0.0;
  double matricize_base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    m2td::parallel::SetGlobalThreads(threads);
    constexpr int kReps = 5;
    m2td::Timer timer;
    for (int r = 0; r < kReps; ++r) {
      auto y = m2td::tensor::ModeProduct(x, u, 1, /*transpose_u=*/false);
      benchmark::DoNotOptimize(y);
    }
    const double ttm_seconds = timer.ElapsedSeconds() / kReps;
    timer.Restart();
    for (int r = 0; r < kReps; ++r) {
      auto unfolded = m2td::tensor::Matricize(x, 1);
      benchmark::DoNotOptimize(unfolded);
    }
    const double matricize_seconds = timer.ElapsedSeconds() / kReps;
    if (threads == 1) {
      ttm_base = ttm_seconds;
      matricize_base = matricize_seconds;
    }
    const std::string suffix = "_t" + std::to_string(threads);
    json->Add("ttm_seconds" + suffix, ttm_seconds);
    json->Add("matricize_seconds" + suffix, matricize_seconds);
    json->Add("ttm_speedup" + suffix,
              ttm_seconds > 0.0 ? ttm_base / ttm_seconds : 0.0);
    json->Add("matricize_speedup" + suffix,
              matricize_seconds > 0.0 ? matricize_base / matricize_seconds
                                      : 0.0);
    std::cout << "  threads=" << threads << "  ttm " << ttm_seconds * 1e3
              << " ms (x" << (ttm_seconds > 0.0 ? ttm_base / ttm_seconds : 0.0)
              << ")  matricize " << matricize_seconds * 1e3 << " ms (x"
              << (matricize_seconds > 0.0 ? matricize_base / matricize_seconds
                                          : 0.0)
              << ")\n";
  }
  m2td::parallel::SetGlobalThreads(m2td::parallel::HardwareThreads());
}

/// Fixed-iteration timing of the two hottest sparse kernels, over the
/// same input grid the google-benchmark entries use. Unlike the adaptive
/// phase totals (google-benchmark picks iteration counts per run, so the
/// per-call mix — and with it the aggregate per-call mean — drifts
/// between runs), these loops run an identical call sequence every time:
/// the reported us-per-call is comparable across builds, which is what
/// tools/check_bench_regression.py keys off for the bench-smoke gate.
void RunSmokeKernels(m2td::bench::BenchJson* json) {
  constexpr int kCalls = 100;
  std::cout << "\nfixed-iteration smoke kernels (" << kCalls
            << " calls per config):\n";

  {
    std::vector<SparseTensor> inputs;
    inputs.push_back(MakeSparse(16, 3, 1000, 11));
    inputs.push_back(MakeSparse(16, 3, 10000, 11));
    inputs.push_back(MakeSparse(64, 3, 10000, 11));
    m2td::Timer timer;
    for (const SparseTensor& x : inputs) {
      for (int c = 0; c < kCalls; ++c) {
        auto gram = m2td::tensor::ModeGram(x, 0);
        benchmark::DoNotOptimize(gram);
      }
    }
    const double us_per_call =
        timer.ElapsedSeconds() * 1e6 / (kCalls * inputs.size());
    json->Add("smoke_mode_gram_us_per_call", us_per_call);
    std::cout << "  mode_gram " << us_per_call << " us/call\n";
  }
  {
    std::vector<SparseTensor> inputs;
    inputs.push_back(MakeSparse(16, 4, 1000, 17));
    inputs.push_back(MakeSparse(16, 4, 10000, 17));
    inputs.push_back(MakeSparse(16, 4, 100000, 17));
    const Matrix u = RandomFactor(16, 5, 19);
    m2td::Timer timer;
    for (const SparseTensor& x : inputs) {
      for (int c = 0; c < kCalls; ++c) {
        auto y = m2td::tensor::SparseModeProduct(x, u, 0, true);
        benchmark::DoNotOptimize(y);
      }
    }
    const double us_per_call =
        timer.ElapsedSeconds() * 1e6 / (kCalls * inputs.size());
    json->Add("smoke_sparse_mode_product_us_per_call", us_per_call);
    std::cout << "  sparse_mode_product " << us_per_call << " us/call\n";
  }
}

/// Sketched-vs-deterministic HOSVD init, fixed-iteration like the other
/// smoke kernels. The timing input is a mode-64 synthetic tensor where the
/// sketch (rank 5 + oversampling 8 = 13) is far below the mode length —
/// the regime the randomized path targets, and where `symmetric_eigen`
/// dominated the profile before this path existed. bench-smoke gates
/// both directions: randomized must stay faster than deterministic
/// (--assert_faster) and the worst fit gap across the three paper systems
/// must stay within epsilon (--max_result randomized_hosvd_fit_gap).
void RunRandomizedHosvdSmoke(m2td::bench::BenchJson* json) {
  constexpr int kCalls = 12;
  std::cout << "\nrandomized vs deterministic HOSVD init (" << kCalls
            << " calls, dim 64, nnz 20000, rank 5):\n";
  SparseTensor x = MakeSparse(64, 3, 20000, 43);
  const std::vector<std::uint64_t> ranks(3, 5);
  m2td::tensor::HosvdOptions randomized;
  randomized.factor.method = m2td::linalg::GramFactorMethod::kRandomized;

  double det_us = 0.0;
  {
    m2td::obs::ObsSpan span("deterministic_hosvd");
    m2td::Timer timer;
    for (int c = 0; c < kCalls; ++c) {
      auto tucker = m2td::tensor::HosvdSparse(x, ranks);
      M2TD_CHECK(tucker.ok());
      benchmark::DoNotOptimize(tucker);
    }
    det_us = timer.ElapsedSeconds() * 1e6 / kCalls;
  }
  double rand_us = 0.0;
  {
    m2td::obs::ObsSpan span("randomized_hosvd");
    m2td::Timer timer;
    for (int c = 0; c < kCalls; ++c) {
      auto tucker = m2td::tensor::HosvdSparse(x, ranks, randomized);
      M2TD_CHECK(tucker.ok());
      benchmark::DoNotOptimize(tucker);
    }
    rand_us = timer.ElapsedSeconds() * 1e6 / kCalls;
  }
  const double speedup = rand_us > 0.0 ? det_us / rand_us : 0.0;
  json->Add("smoke_deterministic_hosvd_us_per_call", det_us);
  json->Add("smoke_randomized_hosvd_us_per_call", rand_us);
  json->Add("randomized_hosvd_speedup", speedup);
  std::cout << "  deterministic_hosvd " << det_us << " us/call\n"
            << "  randomized_hosvd " << rand_us << " us/call (x" << speedup
            << ")\n";

  // Accuracy half of the gate: worst randomized-vs-deterministic fit gap
  // across the paper's three systems (res 10, rank 4, oversampling 4, so
  // the sketch of 8 is genuinely below the mode length of 10).
  double max_gap = 0.0;
  for (const char* system :
       {"double_pendulum", "triple_pendulum", "lorenz"}) {
    auto model = m2td::bench::MakeModel(system, m2td::bench::kSmallRes);
    M2TD_CHECK(model.ok()) << model.status();
    Rng rng(7);
    auto ensemble_x = m2td::ensemble::BuildConventionalEnsemble(
        model->get(), m2td::ensemble::ConventionalScheme::kRandom,
        /*budget=*/60, &rng);
    M2TD_CHECK(ensemble_x.ok()) << ensemble_x.status();
    const m2td::tensor::DenseTensor dense = ensemble_x->ToDense();
    const std::vector<std::uint64_t> fit_ranks(ensemble_x->num_modes(), 4);

    auto deterministic = m2td::tensor::HosvdSparse(*ensemble_x, fit_ranks);
    M2TD_CHECK(deterministic.ok());
    m2td::tensor::HosvdOptions sketched;
    sketched.factor.method = m2td::linalg::GramFactorMethod::kRandomized;
    sketched.factor.sketch.oversampling = 4;
    auto rand_tucker =
        m2td::tensor::HosvdSparse(*ensemble_x, fit_ranks, sketched);
    M2TD_CHECK(rand_tucker.ok());

    auto det_rec = m2td::tensor::Reconstruct(*deterministic);
    auto rand_rec = m2td::tensor::Reconstruct(*rand_tucker);
    M2TD_CHECK(det_rec.ok() && rand_rec.ok());
    const double det_fit =
        m2td::tensor::ReconstructionAccuracy(*det_rec, dense);
    const double rand_fit =
        m2td::tensor::ReconstructionAccuracy(*rand_rec, dense);
    const double gap = std::max(0.0, det_fit - rand_fit);
    max_gap = std::max(max_gap, gap);
    std::cout << "  fit gap " << system << ": " << gap << " (det " << det_fit
              << ", rand " << rand_fit << ")\n";
  }
  json->Add("randomized_hosvd_fit_gap", max_gap);
}

/// QL-vs-Jacobi eigensolver smoke, fixed-iteration. Both methods run on
/// the same symmetric inputs (the Gram sizes HOSVD meets) in the same
/// process, so the ratio is apples-to-apples whatever the host.
/// bench-smoke gates `--assert_faster symmetric_eigen_ql:symmetric_eigen`
/// plus `symmetric_eigen_ql_ratio` <= 1/3 (the >= 3x tentpole target) and
/// `symmetric_eigen_method_gap` (eigenvalue agreement) small.
void RunEigenSmoke(m2td::bench::BenchJson* json) {
  constexpr int kCalls = 20;
  std::cout << "\nQL vs Jacobi symmetric eigensolver (" << kCalls
            << " calls per size, n = 32 / 64):\n";
  std::vector<Matrix> inputs;
  for (std::size_t n : {std::size_t{32}, std::size_t{64}}) {
    Rng rng(3);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        a(i, j) = a(j, i) = rng.Gaussian();
      }
    }
    inputs.push_back(std::move(a));
  }

  double jacobi_us = 0.0;
  {
    m2td::Timer timer;
    for (const Matrix& a : inputs) {
      for (int c = 0; c < kCalls; ++c) {
        auto eig = m2td::linalg::SymmetricEigen(a);
        benchmark::DoNotOptimize(eig);
      }
    }
    jacobi_us = timer.ElapsedSeconds() * 1e6 / (kCalls * inputs.size());
  }
  m2td::linalg::EigenOptions ql;
  ql.method = m2td::linalg::EigenMethod::kTridiagonalQL;
  double ql_us = 0.0;
  {
    m2td::Timer timer;
    for (const Matrix& a : inputs) {
      for (int c = 0; c < kCalls; ++c) {
        auto eig = m2td::linalg::SymmetricEigen(a, ql);
        benchmark::DoNotOptimize(eig);
      }
    }
    ql_us = timer.ElapsedSeconds() * 1e6 / (kCalls * inputs.size());
  }

  // Agreement: worst relative eigenvalue difference across the inputs.
  double gap = 0.0;
  for (const Matrix& a : inputs) {
    auto jac_eig = m2td::linalg::SymmetricEigen(a);
    auto ql_eig = m2td::linalg::SymmetricEigen(a, ql);
    M2TD_CHECK(jac_eig.ok() && ql_eig.ok());
    const double scale = std::max(1.0, a.FrobeniusNorm());
    for (std::size_t i = 0; i < jac_eig->eigenvalues.size(); ++i) {
      gap = std::max(gap, std::fabs(jac_eig->eigenvalues[i] -
                                    ql_eig->eigenvalues[i]) /
                              scale);
    }
  }

  const double ratio = jacobi_us > 0.0 ? ql_us / jacobi_us : 1.0;
  json->Add("smoke_symmetric_eigen_us_per_call", jacobi_us);
  json->Add("smoke_symmetric_eigen_ql_us_per_call", ql_us);
  json->Add("symmetric_eigen_ql_ratio", ratio);
  json->Add("symmetric_eigen_method_gap", gap);
  std::cout << "  jacobi " << jacobi_us << " us/call\n"
            << "  tridiagonal_ql " << ql_us << " us/call ("
            << (ratio > 0.0 ? 1.0 / ratio : 0.0)
            << "x, eigenvalue gap " << gap << ")\n";
}

/// Times `body` once with the kernel dispatch pinned to the scalar table
/// (`M2TD_FORCE_ISA=scalar`) and once at the environment's own resolved
/// ISA, returning {scalar, simd} wall seconds. The scalar run goes first,
/// the order the committed baselines were measured in.
std::pair<double, double> TimeScalarAndSimd(const std::function<void()>& body) {
  const char* env = std::getenv("M2TD_FORCE_ISA");
  const std::string saved = env != nullptr ? env : "";
  ::setenv("M2TD_FORCE_ISA", "scalar", /*overwrite=*/1);
  m2td::util::RefreshSimdIsaForTesting();
  m2td::Timer scalar_timer;
  body();
  const double scalar_s = scalar_timer.ElapsedSeconds();
  if (env != nullptr) {
    ::setenv("M2TD_FORCE_ISA", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("M2TD_FORCE_ISA");
  }
  m2td::util::RefreshSimdIsaForTesting();
  m2td::Timer simd_timer;
  body();
  return {scalar_s, simd_timer.ElapsedSeconds()};
}

/// Records one SIMD-vs-scalar twin: `<key>_us_per_call` (scalar),
/// `<key>_simd_us_per_call` and `<ratio_key>` = simd / scalar.
void AddSimdTwin(m2td::bench::BenchJson* json, const std::string& key,
                 const std::string& ratio_key,
                 std::pair<double, double> seconds, double calls) {
  const double scalar_us = seconds.first * 1e6 / calls;
  const double simd_us = seconds.second * 1e6 / calls;
  const double ratio = scalar_us > 0.0 ? simd_us / scalar_us : 1.0;
  json->Add("smoke_" + key + "_us_per_call", scalar_us);
  json->Add("smoke_" + key + "_simd_us_per_call", simd_us);
  json->Add(ratio_key, ratio);
  std::cout << "  " << key << " scalar " << scalar_us << " us/call, simd "
            << simd_us << " us/call (x" << (ratio > 0.0 ? 1.0 / ratio : 0.0)
            << ")\n";
}

/// SIMD-vs-scalar kernel smoke, fixed-iteration: each kernel runs the
/// identical call sequence pinned to the scalar table (the bit-exact
/// oracle, and the dispatch target on hosts without AVX2/NEON) and at
/// util::ResolvedSimdIsa(). bench-smoke gates the `_simd` keys faster than
/// their scalar twins and the per-kernel ratios under the 1.5x target. On
/// a host whose resolved ISA is scalar these gates will fail — by design:
/// the gate certifies this box's dispatch, and compare_runs.py separately
/// refuses to diff reports from different ISA levels.
void RunSimdSmoke(m2td::bench::BenchJson* json) {
  constexpr int kCalls = 100;
  std::cout << "\nSIMD vs scalar kernels (dispatch "
            << m2td::util::SimdIsaName(m2td::util::ResolvedSimdIsa())
            << ", " << kCalls << " calls per config):\n";

  // Dense multiply: tall-times-wide shapes sized like the HOSVD factor
  // products (tiles divide evenly; ~7 Mflop per call).
  {
    const Matrix a = RandomFactor(96, 384, 61);
    const Matrix b = RandomFactor(384, 96, 67);
    constexpr int kMulCalls = 200;
    AddSimdTwin(json, "dense_multiply", "dense_multiply_simd_ratio",
                TimeScalarAndSimd([&] {
                  for (int c = 0; c < kMulCalls; ++c) {
                    auto prod = m2td::linalg::Multiply(a, b);
                    benchmark::DoNotOptimize(prod);
                  }
                }),
                kMulCalls);
  }

  // ModeGram on fiber-dense (ensemble-regime) tensors, where the CSF
  // leaf runs are long enough to vectorize; MakeSparse's uniform scatter
  // produces 2-4 entry fibers that stay on the scalar pair loop.
  {
    std::vector<SparseTensor> inputs;
    inputs.push_back(MakeFiberDense(16, 3, 200, 11));
    inputs.push_back(MakeFiberDense(64, 3, 1500, 11));
    AddSimdTwin(json, "mode_gram_fiber", "mode_gram_simd_ratio",
                TimeScalarAndSimd([&] {
                  for (const SparseTensor& x : inputs) {
                    for (int c = 0; c < kCalls; ++c) {
                      auto gram = m2td::tensor::ModeGram(x, 0);
                      benchmark::DoNotOptimize(gram);
                    }
                  }
                }),
                kCalls * inputs.size());
  }

  // SparseModeProduct at decomposition rank 16 on the fiber-dense input:
  // each 64-entry fiber runs 64 contiguous rank-16 axpys into the scratch
  // accumulator, so the vector share dominates the per-fiber overhead.
  {
    std::vector<SparseTensor> inputs;
    inputs.push_back(MakeFiberDense(64, 3, 1500, 17));
    const Matrix u = RandomFactor(64, 16, 19);
    AddSimdTwin(json, "sparse_mode_product_fiber",
                "sparse_mode_product_simd_ratio", TimeScalarAndSimd([&] {
                  for (const SparseTensor& x : inputs) {
                    for (int c = 0; c < kCalls; ++c) {
                      auto y = m2td::tensor::SparseModeProduct(x, u, 0, true);
                      benchmark::DoNotOptimize(y);
                    }
                  }
                }),
                kCalls * inputs.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  m2td::obs::SetTracingEnabled(true);
  m2td::obs::SetMetricsEnabled(true);
  m2td::bench::BenchJson json("micro_kernels");
  RunThreadSweep(&json);
  RunSmokeKernels(&json);
  RunRandomizedHosvdSmoke(&json);
  RunEigenSmoke(&json);
  RunSimdSmoke(&json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  json.Write();
  return 0;
}
