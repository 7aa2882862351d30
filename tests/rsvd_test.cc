// Tests for the randomized sketched factor path (linalg/rsvd.h): seed
// determinism across thread counts, oversampling monotonicity, exact
// fallback, and randomized-vs-deterministic epsilon equivalence on the
// paper's three dynamical systems — plus the init-wall-time win the
// sketch exists to deliver.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/rsvd.h"
#include "linalg/svd.h"
#include "parallel/thread_pool.h"
#include "tensor/hooi.h"
#include "tensor/tucker.h"
#include "util/random.h"
#include "util/timer.h"

namespace m2td::linalg {
namespace {

// Symmetric PSD n x n with geometrically decaying spectrum: A = B D B^T
// for a random orthonormal-ish B — the shape Gram matrices of smooth
// simulation ensembles actually have, where sketching shines.
Matrix DecayingPsd(std::size_t n, double decay, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.Gaussian();
  }
  // Scale column j by decay^j, then form A = B B^T (PSD by construction).
  double scale = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) b(i, j) *= scale;
    scale *= decay;
  }
  return MultiplyTransB(b, b);
}

// Rayleigh-quotient energy trace(U^T A U): how much of A's action the
// subspace spanned by U's columns captures. Monotone in subspace quality.
double CapturedEnergy(const Matrix& a, const Matrix& u) {
  const Matrix au = Multiply(a, u);
  const Matrix proj = MultiplyTransA(u, au);
  double trace = 0.0;
  for (std::size_t i = 0; i < proj.rows(); ++i) trace += proj(i, i);
  return trace;
}

TEST(RandomizedRangeFactorTest, RejectsBadInputs) {
  Matrix empty(0, 0);
  EXPECT_FALSE(RandomizedRangeFactor(empty, 2).ok());
  Matrix rect(4, 3);
  EXPECT_FALSE(RandomizedRangeFactor(rect, 2).ok());
  Matrix square = Matrix::Identity(4);
  EXPECT_FALSE(RandomizedRangeFactor(square, 0).ok());
}

TEST(RandomizedRangeFactorTest, ColumnsAreOrthonormal) {
  const Matrix a = DecayingPsd(64, 0.7, 5);
  RandomizedSvdOptions options;
  options.oversampling = 8;
  auto u = RandomizedRangeFactor(a, 5, options);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->rows(), 64u);
  EXPECT_EQ(u->cols(), 5u);
  const Matrix gram = MultiplyTransA(*u, *u);
  EXPECT_LT(Matrix::MaxAbsDiff(gram, Matrix::Identity(5)), 1e-9);
}

TEST(RandomizedRangeFactorTest, BitIdenticalAcrossThreadCounts) {
  const Matrix a = DecayingPsd(96, 0.8, 11);
  RandomizedSvdOptions options;
  options.seed = 17;
  parallel::SetGlobalThreads(1);
  auto u1 = RandomizedRangeFactor(a, 6, options);
  parallel::SetGlobalThreads(4);
  auto u4 = RandomizedRangeFactor(a, 6, options);
  parallel::SetGlobalThreads(1);
  ASSERT_TRUE(u1.ok() && u4.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(*u1, *u4), 0.0);
}

TEST(RandomizedRangeFactorTest, SameSeedSameResultDifferentSeedDiffers) {
  const Matrix a = DecayingPsd(64, 0.8, 3);
  RandomizedSvdOptions options;
  options.seed = 9;
  auto u_a = RandomizedRangeFactor(a, 4, options);
  auto u_b = RandomizedRangeFactor(a, 4, options);
  ASSERT_TRUE(u_a.ok() && u_b.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(*u_a, *u_b), 0.0);
  options.seed = 10;
  auto u_c = RandomizedRangeFactor(a, 4, options);
  ASSERT_TRUE(u_c.ok());
  EXPECT_GT(Matrix::MaxAbsDiff(*u_a, *u_c), 0.0);
}

TEST(RandomizedRangeFactorTest, OversamplingImprovesCapturedEnergy) {
  // With a slowly decaying spectrum and no power iterations the sketch
  // quality is limited, so extra oversampling must help (and the captured
  // energy approaches the exact top-k energy from below).
  const Matrix a = DecayingPsd(64, 0.95, 7);
  const std::size_t rank = 4;
  auto exact = LeadingEigenvectors(a, rank);
  ASSERT_TRUE(exact.ok());
  const double exact_energy = CapturedEnergy(a, *exact);

  double previous = 0.0;
  for (std::size_t oversampling : {std::size_t{0}, std::size_t{8},
                                   std::size_t{32}}) {
    RandomizedSvdOptions options;
    options.oversampling = oversampling;
    options.power_iterations = 0;
    auto u = RandomizedRangeFactor(a, rank, options);
    ASSERT_TRUE(u.ok());
    const double energy = CapturedEnergy(a, *u);
    EXPECT_LE(energy, exact_energy + 1e-9);
    EXPECT_GE(energy, previous - 1e-9)
        << "oversampling " << oversampling << " lost captured energy";
    previous = energy;
  }
  // At sketch 36 of 64 with this spectrum the subspace is near-exact.
  EXPECT_GT(previous, 0.9 * exact_energy);
}

TEST(RandomizedRangeFactorTest, PowerIterationsSharpenTheSketch) {
  const Matrix a = DecayingPsd(64, 0.95, 13);
  const std::size_t rank = 4;
  double previous = 0.0;
  for (int iters : {0, 2}) {
    RandomizedSvdOptions options;
    options.oversampling = 2;
    options.power_iterations = iters;
    auto u = RandomizedRangeFactor(a, rank, options);
    ASSERT_TRUE(u.ok());
    const double energy = CapturedEnergy(a, *u);
    EXPECT_GE(energy, previous - 1e-9);
    previous = energy;
  }
}

TEST(RandomizedRangeFactorTest, ExactFallbackMatchesDeterministic) {
  // Sketch (rank + oversampling) >= n: the call must degrade to the exact
  // eigensolve, bit for bit.
  const Matrix a = DecayingPsd(12, 0.6, 19);
  RandomizedSvdOptions options;
  options.oversampling = 8;  // 5 + 8 > 12
  auto randomized = RandomizedRangeFactor(a, 5, options);
  auto exact = LeadingEigenvectors(a, 5);
  ASSERT_TRUE(randomized.ok() && exact.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(*randomized, *exact), 0.0);
}

TEST(GramFactorTest, DeterministicDispatchIsBitExactOracle) {
  const Matrix a = DecayingPsd(32, 0.7, 23);
  GramFactorOptions options;  // default: kDeterministic
  auto via_dispatch = GramFactor(a, 4, options);
  auto direct = LeftSingularVectorsFromGram(a, 4);
  ASSERT_TRUE(via_dispatch.ok() && direct.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(*via_dispatch, *direct), 0.0);
}

TEST(GramFactorTest, NonFiniteGramIsInvalidArgument) {
  const Matrix base = DecayingPsd(8, 0.7, 29);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (bool diagonal : {true, false}) {
      Matrix a = base;
      if (diagonal) {
        a(2, 2) = bad;
      } else {
        a(1, 5) = a(5, 1) = bad;
      }
      for (EigenMethod method :
           {EigenMethod::kJacobi, EigenMethod::kTridiagonalQL}) {
        GramFactorOptions options;
        options.eigen.method = method;
        auto factor = GramFactor(a, 3, options);
        ASSERT_FALSE(factor.ok())
            << bad << (diagonal ? " diagonal " : " off-diagonal ")
            << EigenMethodName(method);
        EXPECT_EQ(factor.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(GramFactorTest, ForModeDecorrelatesSeedsDeterministically) {
  GramFactorOptions options;
  options.sketch.seed = 42;
  const std::uint64_t m0 = options.ForMode(0).sketch.seed;
  const std::uint64_t m1 = options.ForMode(1).sketch.seed;
  EXPECT_NE(m0, m1);
  EXPECT_NE(m0, options.sketch.seed);
  EXPECT_EQ(m0, options.ForMode(0).sketch.seed);  // pure function
  // Other fields pass through untouched.
  options.method = GramFactorMethod::kRandomized;
  options.sketch.oversampling = 3;
  GramFactorOptions derived = options.ForMode(2);
  EXPECT_EQ(derived.method, GramFactorMethod::kRandomized);
  EXPECT_EQ(derived.sketch.oversampling, 3u);
}

TEST(GramFactorTest, RandomizedSubspaceNearExactOnDecayingSpectrum) {
  const Matrix a = DecayingPsd(96, 0.8, 29);
  const std::size_t rank = 5;
  GramFactorOptions options;
  options.method = GramFactorMethod::kRandomized;
  auto u = GramFactor(a, rank, options);
  auto exact = LeadingEigenvectors(a, rank);
  ASSERT_TRUE(u.ok() && exact.ok());
  const double exact_energy = CapturedEnergy(a, *exact);
  const double sketched_energy = CapturedEnergy(a, *u);
  EXPECT_GT(sketched_energy, 0.999 * exact_energy);
}

// The reason the path exists: on a Gram large enough to sketch, the
// randomized factor must beat the full Jacobi eigensolve. Best-of-three
// wall times absorb scheduler noise; the margin demanded (merely "faster",
// not a ratio) keeps the test robust on loaded machines while still
// catching a pessimized sketch path.
TEST(GramFactorTest, SketchedInitBeatsDeterministicWallTime) {
  const Matrix a = DecayingPsd(192, 0.9, 31);
  const std::size_t rank = 8;
  RandomizedSvdOptions options;
  options.oversampling = 8;

  double det_best = 1e30;
  double rand_best = 1e30;
  for (int round = 0; round < 3; ++round) {
    Timer det_timer;
    auto exact = LeadingEigenvectors(a, rank);
    det_best = std::min(det_best, det_timer.ElapsedSeconds());
    ASSERT_TRUE(exact.ok());
    Timer rand_timer;
    auto sketched = RandomizedRangeFactor(a, rank, options);
    rand_best = std::min(rand_best, rand_timer.ElapsedSeconds());
    ASSERT_TRUE(sketched.ok());
  }
  EXPECT_LT(rand_best, det_best)
      << "sketched " << rand_best * 1e3 << " ms vs deterministic "
      << det_best * 1e3 << " ms";
}

// ---------------------------------------------------------- paper systems

struct PaperSystem {
  const char* name;
  Result<std::unique_ptr<ensemble::DynamicalSystemModel>> (*make)(
      const ensemble::ModelOptions&);
};

const PaperSystem kPaperSystems[] = {
    {"double_pendulum", &ensemble::MakeDoublePendulumModel},
    {"triple_pendulum", &ensemble::MakeTriplePendulumModel},
    {"lorenz", &ensemble::MakeLorenzModel},
};

tensor::SparseTensor BuildEnsemble(ensemble::DynamicalSystemModel* model) {
  Rng rng(7);
  auto x = ensemble::BuildConventionalEnsemble(
      model, ensemble::ConventionalScheme::kRandom, /*budget=*/60, &rng);
  EXPECT_TRUE(x.ok());
  return std::move(x).ValueOrDie();
}

double Fit(const tensor::TuckerDecomposition& tucker,
           const tensor::DenseTensor& dense) {
  auto reconstructed = tensor::Reconstruct(tucker);
  EXPECT_TRUE(reconstructed.ok());
  return tensor::ReconstructionAccuracy(*reconstructed, dense);
}

// Randomized HOSVD must land within epsilon of the deterministic fit on
// all three paper systems — the accuracy half of the tentpole's gate (the
// bench-smoke key randomized_hosvd_fit_gap enforces the same bound on the
// committed baseline).
TEST(RandomizedHosvdTest, FitWithinEpsilonOfDeterministicOnPaperSystems) {
  for (const PaperSystem& system : kPaperSystems) {
    ensemble::ModelOptions model_options;
    model_options.parameter_resolution = 10;
    model_options.time_resolution = 10;
    auto model = system.make(model_options);
    ASSERT_TRUE(model.ok()) << system.name;
    tensor::SparseTensor x = BuildEnsemble(model->get());
    const tensor::DenseTensor dense = x.ToDense();
    const std::vector<std::uint64_t> ranks(x.num_modes(), 4);

    auto deterministic = tensor::HosvdSparse(x, ranks);
    ASSERT_TRUE(deterministic.ok()) << system.name;

    tensor::HosvdOptions options;
    options.factor.method = GramFactorMethod::kRandomized;
    options.factor.sketch.oversampling = 4;  // sketch 8 < dim 10: real path
    auto randomized = tensor::HosvdSparse(x, ranks, options);
    ASSERT_TRUE(randomized.ok()) << system.name;

    const double det_fit = Fit(*deterministic, dense);
    const double rand_fit = Fit(*randomized, dense);
    EXPECT_NEAR(rand_fit, det_fit, 0.02)
        << system.name << ": deterministic " << det_fit << " vs randomized "
        << rand_fit;
  }
}

TEST(RandomizedHosvdTest, RandomizedInitBitIdenticalAcrossThreadCounts) {
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 10;
  model_options.time_resolution = 10;
  auto model = ensemble::MakeLorenzModel(model_options);
  ASSERT_TRUE(model.ok());
  tensor::SparseTensor x = BuildEnsemble(model->get());
  const std::vector<std::uint64_t> ranks(x.num_modes(), 4);
  tensor::HosvdOptions options;
  options.factor.method = GramFactorMethod::kRandomized;
  options.factor.sketch.oversampling = 4;

  parallel::SetGlobalThreads(1);
  auto t1 = tensor::HosvdSparse(x, ranks, options);
  parallel::SetGlobalThreads(3);
  auto t3 = tensor::HosvdSparse(x, ranks, options);
  parallel::SetGlobalThreads(1);
  ASSERT_TRUE(t1.ok() && t3.ok());
  ASSERT_EQ(t1->factors.size(), t3->factors.size());
  for (std::size_t m = 0; m < t1->factors.size(); ++m) {
    EXPECT_EQ(Matrix::MaxAbsDiff(t1->factors[m], t3->factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_EQ(tensor::DenseTensor::FrobeniusDistance(t1->core, t3->core), 0.0);
}

// The deterministic path must be bit-identical to the pre-knob behavior:
// the 2-arg overload and explicit default options agree exactly.
TEST(RandomizedHosvdTest, DefaultOptionsPreserveDeterministicPath) {
  ensemble::ModelOptions model_options;
  model_options.parameter_resolution = 8;
  model_options.time_resolution = 8;
  auto model = ensemble::MakeDoublePendulumModel(model_options);
  ASSERT_TRUE(model.ok());
  tensor::SparseTensor x = BuildEnsemble(model->get());
  const std::vector<std::uint64_t> ranks(x.num_modes(), 3);
  auto implicit = tensor::HosvdSparse(x, ranks);
  auto explicit_default = tensor::HosvdSparse(x, ranks, tensor::HosvdOptions{});
  ASSERT_TRUE(implicit.ok() && explicit_default.ok());
  for (std::size_t m = 0; m < implicit->factors.size(); ++m) {
    EXPECT_EQ(Matrix::MaxAbsDiff(implicit->factors[m],
                                 explicit_default->factors[m]),
              0.0);
  }
  EXPECT_EQ(tensor::DenseTensor::FrobeniusDistance(implicit->core,
                                                   explicit_default->core),
            0.0);
}

TEST(RandomizedHooiTest, RandomizedInitConvergesWithinEpsilonOfHosvdInit) {
  for (const PaperSystem& system : kPaperSystems) {
    ensemble::ModelOptions model_options;
    model_options.parameter_resolution = 10;
    model_options.time_resolution = 10;
    auto model = system.make(model_options);
    ASSERT_TRUE(model.ok()) << system.name;
    tensor::SparseTensor x = BuildEnsemble(model->get());
    const std::vector<std::uint64_t> ranks(x.num_modes(), 4);

    tensor::HooiOptions deterministic;
    tensor::HooiInfo det_info;
    auto det = tensor::HooiSparse(x, ranks, deterministic, &det_info);
    ASSERT_TRUE(det.ok()) << system.name;

    tensor::HooiOptions randomized;
    randomized.init = tensor::HooiInit::kRandomized;
    randomized.sketch.oversampling = 4;
    tensor::HooiInfo rand_info;
    auto rand = tensor::HooiSparse(x, ranks, randomized, &rand_info);
    ASSERT_TRUE(rand.ok()) << system.name;

    // The ALS sweeps polish away the init difference: the final fits (on
    // the input tensor) must agree within epsilon.
    EXPECT_NEAR(rand_info.fit, det_info.fit, 0.01)
        << system.name << ": deterministic " << det_info.fit
        << " vs randomized " << rand_info.fit;
  }
}

}  // namespace
}  // namespace m2td::linalg
