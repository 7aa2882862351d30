// Bit-identity of both production eigensolvers against the
// element-accessor loops they replaced (tests/oracles): eigenvalues,
// eigenvectors, work count and convergence flag compare with memcmp, on
// sizes across the parallel-scan boundary, on several spectrum shapes,
// with starved iteration budgets, under the forced-scalar and the
// resolved kernel dispatch.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dispatch_guard.h"
#include "ensemble/sampling.h"
#include "ensemble/simulation_model.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "oracles/symmetric_eigen_reference.h"
#include "tensor/matricize.h"
#include "util/random.h"

namespace m2td::linalg {
namespace {

struct Case {
  std::string name;
  Matrix a;
};

Matrix RandomSymmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) a(i, j) = a(j, i) = rng.Gaussian();
  }
  return a;
}

// Q diag(w) Q^T with Q the eigenvectors of a random symmetric matrix.
// Computed with plain products, so it is symmetric only to rounding —
// the way real Gram matrices reach the solver.
Matrix WithSpectrum(const std::vector<double>& w, Rng& rng) {
  const std::size_t n = w.size();
  auto basis = SymmetricEigen(RandomSymmetric(n, rng));
  M2TD_CHECK(basis.ok());
  Matrix scaled = basis->eigenvectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) scaled(i, j) *= w[j];
  }
  return MultiplyTransB(scaled, basis->eigenvectors);
}

std::vector<Case> CasesOfSize(std::size_t n) {
  Rng rng(1000 + n);
  std::vector<Case> cases;
  cases.push_back({"gaussian", RandomSymmetric(n, rng)});

  // Graded: entries span ~2^-2n .. 1 through a diagonal similarity.
  Matrix graded = RandomSymmetric(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      graded(i, j) *= std::ldexp(1.0, -static_cast<int>(i + j));
    }
  }
  cases.push_back({"graded", graded});

  // Clustered and repeated: three exact repeats plus a 1e-10 cluster.
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = (i % 3 == 0) ? 2.0 : 1.0 + 1e-10 * static_cast<double>(i);
  }
  cases.push_back({"clustered", WithSpectrum(w, rng)});

  // Exact-zero off-diagonals: the Jacobi 1e-300 skip and the QL
  // zero-scale / zero-subdiagonal branches.
  Matrix sparse = RandomSymmetric(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if ((i + 2 * j) % 3 != 0) sparse(i, j) = sparse(j, i) = 0.0;
    }
  }
  cases.push_back({"zero_offdiag", sparse});
  Matrix diagonal(n, n);
  for (std::size_t i = 0; i < n; ++i) diagonal(i, i) = rng.Gaussian();
  cases.push_back({"diagonal", diagonal});

  // Asymmetric within the 1e-9 relative tolerance: the solvers read
  // both triangles as they are, never a mirrored copy.
  Matrix skewed = RandomSymmetric(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) skewed(i, j) += 1e-12 * rng.Gaussian();
  }
  cases.push_back({"asymmetric", skewed});
  return cases;
}

// Mode Grams of small ensembles of the paper's systems.
std::vector<Case> PaperGramCases() {
  ensemble::ModelOptions options;
  options.parameter_resolution = 5;
  options.time_resolution = 9;
  options.dt = 0.01;
  options.record_every = 5;
  std::vector<Case> cases;
  auto model = ensemble::MakeLorenzModel(options);
  M2TD_CHECK(model.ok());
  Rng rng(11);
  auto x = ensemble::BuildConventionalEnsemble(
      model->get(), ensemble::ConventionalScheme::kRandom, /*budget=*/60,
      &rng);
  M2TD_CHECK(x.ok());
  for (std::size_t mode = 0; mode < x->num_modes(); ++mode) {
    auto gram = tensor::ModeGram(*x, mode);
    M2TD_CHECK(gram.ok());
    if (gram->rows() < 2) continue;
    cases.push_back({"lorenz_mode" + std::to_string(mode), *gram});
  }
  return cases;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectIdentical(const Result<SymmetricEigenResult>& got,
                     const Result<SymmetricEigenResult>& want,
                     const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status();
  ASSERT_TRUE(want.ok()) << where << ": " << want.status();
  EXPECT_TRUE(SameBytes(got->eigenvalues, want->eigenvalues))
      << where << ": eigenvalues";
  EXPECT_EQ(got->eigenvectors.rows(), want->eigenvectors.rows()) << where;
  EXPECT_TRUE(SameBytes(got->eigenvectors.data(), want->eigenvectors.data()))
      << where << ": eigenvectors";
  EXPECT_EQ(got->sweeps, want->sweeps) << where << ": sweeps";
  EXPECT_EQ(got->converged, want->converged) << where << ": converged";
}

// Runs every case through both methods (default and starved budgets)
// at the current dispatch and compares against the oracles.
void CompareAll(const std::vector<Case>& cases, const std::string& isa) {
  for (const Case& c : cases) {
    const std::string where = isa + "/" + c.name + "/n=" +
                              std::to_string(c.a.rows());
    EigenOptions jacobi;
    jacobi.method = EigenMethod::kJacobi;
    ExpectIdentical(SymmetricEigen(c.a, jacobi),
                    SymmetricEigenJacobiReference(c.a, jacobi),
                    where + "/jacobi");
    EigenOptions ql;
    ql.method = EigenMethod::kTridiagonalQL;
    ExpectIdentical(SymmetricEigen(c.a, ql),
                    SymmetricEigenQlReference(c.a, ql), where + "/ql");

    EigenOptions one_sweep = jacobi;
    one_sweep.max_sweeps = 1;
    ExpectIdentical(SymmetricEigen(c.a, one_sweep),
                    SymmetricEigenJacobiReference(c.a, one_sweep),
                    where + "/jacobi_max_sweeps=1");
    EigenOptions one_iteration = ql;
    one_iteration.max_ql_iterations = 1;
    ExpectIdentical(SymmetricEigen(c.a, one_iteration),
                    SymmetricEigenQlReference(c.a, one_iteration),
                    where + "/ql_max_iterations=1");
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> all;
  for (std::size_t n : {2, 3, 5, 8, 31, 63, 64, 65, 96, 130}) {
    for (Case& c : CasesOfSize(n)) all.push_back(std::move(c));
  }
  for (Case& c : PaperGramCases()) all.push_back(std::move(c));
  return all;
}

TEST(EigenOracleTest, ForcedScalarMatchesReferenceBitForBit) {
  DispatchGuard guard;
  ForceIsa("scalar");
  CompareAll(AllCases(), "scalar");
}

TEST(EigenOracleTest, ResolvedDispatchMatchesReferenceBitForBit) {
  DispatchGuard guard;
  guard.Restore();
  CompareAll(AllCases(), util::SimdIsaName(util::ResolvedSimdIsa()));
}

TEST(EigenOracleTest, StarvedBudgetsReallyStopEarly) {
  // The starved comparisons above must exercise the nonconverged path,
  // not just an easy input that converges within one step.
  Rng rng(3);
  const Matrix a = RandomSymmetric(31, rng);
  EigenOptions jacobi;
  jacobi.method = EigenMethod::kJacobi;
  jacobi.max_sweeps = 1;
  auto j = SymmetricEigen(a, jacobi);
  ASSERT_TRUE(j.ok());
  EXPECT_FALSE(j->converged);
  EigenOptions ql;
  ql.method = EigenMethod::kTridiagonalQL;
  ql.max_ql_iterations = 1;
  auto q = SymmetricEigen(a, ql);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->converged);
}

}  // namespace
}  // namespace m2td::linalg
