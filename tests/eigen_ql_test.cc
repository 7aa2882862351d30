// Tridiagonal implicit-shift QL eigensolver (tred2/tql2 lineage):
// correctness on degenerate and ill-conditioned spectra, agreement with
// the cyclic-Jacobi oracle on the paper's three simulation systems, the
// process-default method switch, and the nonconvergence surfacing path.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matricize.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace m2td::linalg {
namespace {

EigenOptions QlOptions() {
  EigenOptions options;
  options.method = EigenMethod::kTridiagonalQL;
  return options;
}

Matrix RandomSymmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) a(i, j) = a(j, i) = rng.Gaussian();
  }
  return a;
}

// ||V diag(w) V^T - A||_max: the full-decomposition residual.
double ReconstructionError(const Matrix& a, const SymmetricEigenResult& eig) {
  const std::size_t n = a.rows();
  Matrix vw = eig.eigenvectors;  // columns scaled by eigenvalues
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vw(i, j) *= eig.eigenvalues[j];
  }
  return Matrix::MaxAbsDiff(MultiplyTransB(vw, eig.eigenvectors), a);
}

double OrthonormalityError(const SymmetricEigenResult& eig) {
  const Matrix& v = eig.eigenvectors;
  return Matrix::MaxAbsDiff(MultiplyTransA(v, v),
                            Matrix::Identity(v.cols()));
}

TEST(EigenQlTest, MethodNamesRoundTrip) {
  EXPECT_STREQ(EigenMethodName(EigenMethod::kJacobi), "jacobi");
  EXPECT_STREQ(EigenMethodName(EigenMethod::kTridiagonalQL),
               "tridiagonal_ql");
  EigenMethod method = EigenMethod::kJacobi;
  EXPECT_TRUE(ParseEigenMethod("tridiagonal_ql", &method));
  EXPECT_EQ(method, EigenMethod::kTridiagonalQL);
  EXPECT_TRUE(ParseEigenMethod("jacobi", &method));
  EXPECT_EQ(method, EigenMethod::kJacobi);
  method = EigenMethod::kTridiagonalQL;
  EXPECT_FALSE(ParseEigenMethod("householder", &method));
  EXPECT_EQ(method, EigenMethod::kTridiagonalQL);  // untouched on failure
}

TEST(EigenQlTest, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = -7.5;
  auto eig = SymmetricEigen(a, QlOptions());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  EXPECT_DOUBLE_EQ(eig->eigenvalues[0], -7.5);
  EXPECT_DOUBLE_EQ(std::fabs(eig->eigenvectors(0, 0)), 1.0);
}

TEST(EigenQlTest, TwoByTwoAgainstClosedForm) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 3.0;
  a(0, 1) = a(1, 0) = 4.0;
  auto eig = SymmetricEigen(a, QlOptions());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  // Eigenvalues of [[2,4],[4,3]]: (5 +/- sqrt(65)) / 2, descending.
  const double root = std::sqrt(65.0);
  EXPECT_NEAR(eig->eigenvalues[0], (5.0 + root) / 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], (5.0 - root) / 2.0, 1e-12);
  EXPECT_LT(ReconstructionError(a, *eig), 1e-12);
}

TEST(EigenQlTest, RepeatedEigenvaluesStayOrthonormal) {
  Matrix a = Matrix::Identity(5);
  a.Scale(3.25);
  auto eig = SymmetricEigen(a, QlOptions());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  for (double w : eig->eigenvalues) EXPECT_NEAR(w, 3.25, 1e-12);
  EXPECT_LT(OrthonormalityError(*eig), 1e-10);
}

TEST(EigenQlTest, ClusteredEigenvaluesResolve) {
  // Nearly-degenerate pair 1 and 1+1e-10 plus a separated eigenvalue,
  // hidden behind a random orthogonal similarity (via Jacobi's
  // eigenvectors of a random symmetric matrix).
  auto basis = SymmetricEigen(RandomSymmetric(3, 17));
  ASSERT_TRUE(basis.ok());
  const Matrix& q = basis->eigenvectors;
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 1.0 + 1e-10;
  d(2, 2) = 5.0;
  Matrix a = Multiply(q, MultiplyTransB(d, q));
  // Re-symmetrize exactly (fp products break symmetry at ~1e-17).
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      const double mean = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = a(j, i) = mean;
    }
  }
  auto eig = SymmetricEigen(a, QlOptions());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-9);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-9);
  EXPECT_NEAR(eig->eigenvalues[2], 1.0, 1e-9);
  EXPECT_LT(OrthonormalityError(*eig), 1e-10);
  EXPECT_LT(ReconstructionError(a, *eig), 1e-10);
}

TEST(EigenQlTest, GradedNearSingularGram) {
  // Gram of a matrix with singular values spanning 12 decades: the small
  // eigenvalues underflow toward zero relative to the largest, the
  // classic tql2 stress case for the deflation criterion.
  Matrix b(4, 4);
  b(0, 0) = 1.0;
  b(1, 1) = 1e-4;
  b(2, 2) = 1e-8;
  b(3, 3) = 1e-12;
  auto basis = SymmetricEigen(RandomSymmetric(4, 23));
  ASSERT_TRUE(basis.ok());
  Matrix rotated = Multiply(basis->eigenvectors, b);
  Matrix gram = MultiplyTransB(rotated, rotated);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      const double mean = 0.5 * (gram(i, j) + gram(j, i));
      gram(i, j) = gram(j, i) = mean;
    }
  }
  auto eig = SymmetricEigen(gram, QlOptions());
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 1e-8, 1e-12);
  // The two smallest (1e-16, 1e-24) are below double precision relative
  // to the largest: all we require is no spurious negative mass beyond
  // roundoff and a valid decomposition.
  EXPECT_GT(eig->eigenvalues[3], -1e-12);
  EXPECT_LT(OrthonormalityError(*eig), 1e-10);
  EXPECT_LT(ReconstructionError(gram, *eig), 1e-10);
}

TEST(EigenQlTest, AgreesWithJacobiOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t n : {std::size_t{8}, std::size_t{33}}) {
      const Matrix a = RandomSymmetric(n, seed);
      auto jac = SymmetricEigen(a);
      auto ql = SymmetricEigen(a, QlOptions());
      ASSERT_TRUE(jac.ok() && ql.ok());
      EXPECT_TRUE(ql->converged);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(jac->eigenvalues[i], ql->eigenvalues[i], 1e-9 * n);
      }
      EXPECT_LT(ReconstructionError(a, *ql), 1e-10 * n);
    }
  }
}

TEST(EigenQlTest, AgreesWithJacobiOnPaperSystemGrams) {
  // The Gram matrices the pipeline actually eigendecomposes: mode Grams
  // of small conventional ensembles of the paper's three systems.
  ensemble::ModelOptions options;
  options.parameter_resolution = 4;
  options.time_resolution = 4;
  options.dt = 0.01;
  options.record_every = 5;
  std::vector<Result<std::unique_ptr<ensemble::DynamicalSystemModel>>>
      models;
  models.push_back(ensemble::MakeDoublePendulumModel(options));
  models.push_back(ensemble::MakeTriplePendulumModel(options));
  models.push_back(ensemble::MakeLorenzModel(options));
  for (auto& model : models) {
    ASSERT_TRUE(model.ok()) << model.status();
    Rng rng(7);
    auto x = ensemble::BuildConventionalEnsemble(
        model->get(), ensemble::ConventionalScheme::kRandom, /*budget=*/40,
        &rng);
    ASSERT_TRUE(x.ok()) << x.status();
    for (std::size_t mode = 0; mode < x->num_modes(); ++mode) {
      auto gram = tensor::ModeGram(*x, mode);
      ASSERT_TRUE(gram.ok());
      auto jac = SymmetricEigen(*gram);
      auto ql = SymmetricEigen(*gram, QlOptions());
      ASSERT_TRUE(jac.ok() && ql.ok());
      EXPECT_TRUE(ql->converged);
      const double scale =
          std::max(1.0, std::fabs(jac->eigenvalues.front()));
      for (std::size_t i = 0; i < jac->eigenvalues.size(); ++i) {
        EXPECT_NEAR(jac->eigenvalues[i] / scale,
                    ql->eigenvalues[i] / scale, 1e-10);
      }
      EXPECT_LT(ReconstructionError(*gram, *ql), 1e-9 * scale);
    }
  }
}

TEST(EigenQlTest, LeadingEigenvectorsSpanTopSubspace) {
  const Matrix a = RandomSymmetric(12, 31);
  const Matrix gram = MultiplyTransB(a, a);  // PSD with distinct spectrum
  auto jac = LeadingEigenvectors(gram, 3);
  auto ql = LeadingEigenvectors(gram, 3, QlOptions());
  ASSERT_TRUE(jac.ok() && ql.ok());
  // Columns may differ by sign; the projectors onto the span must match.
  const Matrix pj = MultiplyTransB(*jac, *jac);
  const Matrix pq = MultiplyTransB(*ql, *ql);
  EXPECT_LT(Matrix::MaxAbsDiff(pj, pq), 1e-8);
}

TEST(EigenQlTest, ProcessDefaultMethodSwitch) {
  const bool metrics_was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& solves = obs::GetCounter("linalg.eigen.ql_solves");
  const Matrix a = RandomSymmetric(6, 41);

  const std::uint64_t before = solves.value();
  ASSERT_TRUE(SymmetricEigen(a).ok());  // default default: Jacobi
  EXPECT_EQ(solves.value(), before);

  SetDefaultEigenMethod(EigenMethod::kTridiagonalQL);
  EXPECT_EQ(DefaultEigenMethod(), EigenMethod::kTridiagonalQL);
  ASSERT_TRUE(SymmetricEigen(a).ok());  // picks up the process default
  EXPECT_EQ(solves.value(), before + 1);

  // An explicit per-call method overrides the process default.
  EigenOptions jacobi;
  jacobi.method = EigenMethod::kJacobi;
  ASSERT_TRUE(SymmetricEigen(a, jacobi).ok());
  EXPECT_EQ(solves.value(), before + 1);

  SetDefaultEigenMethod(EigenMethod::kJacobi);
  EXPECT_EQ(DefaultEigenMethod(), EigenMethod::kJacobi);
  obs::SetMetricsEnabled(metrics_was_enabled);
}

TEST(EigenQlTest, SolverCountersAndSpansMatchReportedWork) {
  const bool metrics_was_enabled = obs::MetricsEnabled();
  const bool tracing_was_enabled = obs::TracingEnabled();
  obs::SetMetricsEnabled(true);
  obs::SetTracingEnabled(true);
  obs::Counter& jacobi_solves = obs::GetCounter("linalg.eigen.jacobi_solves");
  obs::Counter& jacobi_sweeps = obs::GetCounter("linalg.eigen.jacobi_sweeps");
  obs::Counter& ql_solves = obs::GetCounter("linalg.eigen.ql_solves");
  obs::Counter& ql_iterations = obs::GetCounter("linalg.eigen.ql_iterations");
  for (std::size_t n : {std::size_t{9}, std::size_t{70}}) {
    const Matrix a = RandomSymmetric(n, 53 + n);
    EigenOptions jacobi;
    jacobi.method = EigenMethod::kJacobi;
    obs::Tracer::Get().Reset();
    const std::uint64_t solves_before = jacobi_solves.value();
    const std::uint64_t sweeps_before = jacobi_sweeps.value();
    const std::uint64_t ql_before = ql_solves.value();
    auto jac = SymmetricEigen(a, jacobi);
    ASSERT_TRUE(jac.ok());
    EXPECT_GT(jac->sweeps, 0);
    EXPECT_EQ(jacobi_solves.value(), solves_before + 1);
    EXPECT_EQ(jacobi_sweeps.value(),
              sweeps_before + static_cast<std::uint64_t>(jac->sweeps));
    EXPECT_EQ(ql_solves.value(), ql_before);

    const std::uint64_t iterations_before = ql_iterations.value();
    auto ql = SymmetricEigen(a, QlOptions());
    ASSERT_TRUE(ql.ok());
    EXPECT_GT(ql->sweeps, 0);
    EXPECT_EQ(ql_solves.value(), ql_before + 1);
    EXPECT_EQ(ql_iterations.value(),
              iterations_before + static_cast<std::uint64_t>(ql->sweeps));
    EXPECT_EQ(jacobi_solves.value(), solves_before + 1);

    // One span per solve, annotated with the method and the size.
    std::vector<std::string> methods;
    for (const obs::SpanRecord& span : obs::Tracer::Get().Spans()) {
      if (span.name != "symmetric_eigen") continue;
      std::string method, size;
      for (const obs::TraceArg& arg : span.args) {
        if (arg.key == "method") method = arg.value;
        if (arg.key == "n") size = arg.value;
      }
      EXPECT_EQ(size, std::to_string(n)) << method;
      methods.push_back(method);
    }
    EXPECT_EQ(methods,
              (std::vector<std::string>{"jacobi", "tridiagonal_ql"}));
  }
  obs::Tracer::Get().Reset();
  obs::SetTracingEnabled(tracing_was_enabled);
  obs::SetMetricsEnabled(metrics_was_enabled);
}

TEST(EigenQlTest, NonconvergenceIsSurfacedNotFatal) {
  const bool metrics_was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& nonconverged = obs::GetCounter("linalg.eigen.nonconverged");
  const std::uint64_t before = nonconverged.value();

  EigenOptions starved = QlOptions();
  starved.max_ql_iterations = 1;  // far below what an 8x8 needs
  const Matrix a = RandomSymmetric(8, 47);
  auto eig = SymmetricEigen(a, starved);
  ASSERT_TRUE(eig.ok());  // best-effort result, not an error status
  EXPECT_FALSE(eig->converged);
  EXPECT_EQ(nonconverged.value(), before + 1);
  // The partial result is still a valid orthogonal transform of A.
  EXPECT_LT(OrthonormalityError(*eig), 1e-10);
  EXPECT_EQ(eig->eigenvalues.size(), 8u);

  // With the classical budget the same matrix converges.
  auto full = SymmetricEigen(a, QlOptions());
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->converged);
  obs::SetMetricsEnabled(metrics_was_enabled);
}

}  // namespace
}  // namespace m2td::linalg
