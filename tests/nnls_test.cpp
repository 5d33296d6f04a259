#include "linalg/nnls.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/random.hpp"
#include "linalg/solve.hpp"

namespace vn2::linalg {
namespace {

TEST(Nnls, ExactNonnegativeSolution) {
  // A well-conditioned system whose unconstrained solution is non-negative:
  // NNLS must recover it exactly.
  Matrix a{{2, 0}, {0, 3}, {0, 0}};
  Vector b{4.0, 9.0, 0.0};
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-9);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(Nnls, ClampsNegativeCoordinates) {
  // Unconstrained LS would need a negative coefficient on the second column;
  // NNLS must zero it.
  Matrix a{{1, 1}, {0, 1}};
  Vector b{1.0, -5.0};
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.x[0], 0.0);
  EXPECT_GE(r.x[1], 0.0);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(Nnls, ZeroRhsGivesZeroSolution) {
  Matrix a = random_uniform_matrix(5, 3, 1);
  NnlsResult r = nnls(a, Vector(5, 0.0));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(r.x[i], 0.0);
  EXPECT_TRUE(r.converged);
}

TEST(Nnls, ShapeMismatchThrows) {
  EXPECT_THROW(nnls(Matrix(3, 2), Vector(4)), std::invalid_argument);
}

TEST(Nnls, WideSystem) {
  // More unknowns than equations: solution exists with zero residual.
  Matrix a = random_uniform_matrix(3, 8, 7, 0.1, 1.0);
  Vector truth = random_uniform_vector(8, 8, 0.0, 1.0);
  Vector b = matvec(a, truth);
  NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-6);
}

// KKT optimality: at the NNLS solution, the gradient g = Aᵀ(Ax − b)
// satisfies g_i ≥ −tol for all i, and g_i ≈ 0 where x_i > 0.
void expect_kkt(const Matrix& a, const Vector& b, const NnlsResult& r,
                double tol = 1e-6) {
  Vector residual = matvec(a, r.x);
  residual -= b;
  const Matrix at = transpose(a);
  Vector grad = matvec(at, residual);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_GE(grad[i], -tol) << "dual feasibility violated at " << i;
    if (r.x[i] > 1e-8) {
      EXPECT_NEAR(grad[i], 0.0, tol) << "complementarity violated at " << i;
    }
  }
}

class NnlsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnlsProperty, KktConditionsHold) {
  const std::uint64_t seed = GetParam();
  Matrix a = random_uniform_matrix(20, 8, seed, -1.0, 1.0);
  Vector b = random_uniform_vector(20, seed + 77, -1.0, 1.0);
  NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < r.x.size(); ++i) EXPECT_GE(r.x[i], 0.0);
  expect_kkt(a, b, r);
}

TEST_P(NnlsProperty, RecoverSparseNonnegativeTruth) {
  const std::uint64_t seed = GetParam();
  Matrix a = random_uniform_matrix(30, 10, seed, 0.0, 1.0);
  Vector truth(10, 0.0);
  truth[seed % 10] = 2.0;
  truth[(seed + 3) % 10] = 0.7;
  Vector b = matvec(a, truth);
  NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-6);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(r.x[i], truth[i], 1e-5);
}

// Exhaustive oracle: the NNLS optimum is the least-squares solution on
// some column subset that is non-negative, and every such solution is a
// feasible point. So the best residual over the non-negative subset
// solutions is the optimum the active set must reach.
double best_nonnegative_subset_residual(const Matrix& a, const Vector& b) {
  const std::size_t n = a.cols();
  double best = norm2(b);  // The empty subset: x = 0.
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> cols;
    for (std::size_t j = 0; j < n; ++j)
      if (mask & (std::size_t{1} << j)) cols.push_back(j);
    Matrix sub(a.rows(), cols.size());
    for (std::size_t r = 0; r < a.rows(); ++r)
      for (std::size_t i = 0; i < cols.size(); ++i) sub(r, i) = a(r, cols[i]);
    const Matrix sub_t = transpose(sub);
    const Vector z = cholesky_solve(matmul(sub_t, sub), matvec(sub_t, b));
    if (std::any_of(z.begin(), z.end(), [](double v) { return v < 0.0; }))
      continue;
    Vector residual = matvec(sub, z);
    residual -= b;
    best = std::min(best, norm2(residual));
  }
  return best;
}

TEST_P(NnlsProperty, ActiveSetMatchesExhaustiveOracle) {
  const std::uint64_t seed = GetParam();
  Matrix a = random_uniform_matrix(25, 8, seed, -1.0, 1.0);
  Vector b = random_uniform_vector(25, seed + 13, -1.0, 1.0);
  const NnlsResult exact = nnls(a, b);
  ASSERT_TRUE(exact.converged);
  const double best = best_nonnegative_subset_residual(a, b);
  EXPECT_NEAR(exact.residual_norm, best, 1e-9 * std::max(1.0, best));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsProperty,
                         ::testing::Values(1, 2, 5, 11, 42, 101, 7777));

// The passive system solved from scratch, the way the solver forms it:
// (G[P,P] + ridge·I)·z = c[P], with G from the prepared system, c = Aᵀb
// accumulated row by row, and the ridge 1e-12 × the largest diagonal.
Vector solve_from_scratch(const Matrix& a, const Vector& b,
                          const std::vector<std::size_t>& passive) {
  const NnlsSystem system(a);
  Vector c(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    kernels::axpy(b[r], a.data() + r * a.cols(), c.data(), a.cols());
  const std::size_t k = passive.size();
  double diag_max = 0.0;
  for (const std::size_t j : passive)
    diag_max = std::max(diag_max, system.gram()(j, j));
  const double ridge = std::max(1e-12 * diag_max, 1e-300);
  Matrix g(k, k);
  Vector rhs(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      g(i, j) = system.gram()(passive[i], passive[j]);
    g(i, i) += ridge;
    rhs[i] = c[passive[i]];
  }
  return cholesky_solve(g, rhs);
}

// Pivots go 2, 0, 1. The passive solve on {2, 0, 1} makes column 0's
// coefficient negative (b = 2·a2 − 0.5·a0 + a1), so the walk-back drops
// it. Column 2, pivoted first, keeps its factor row and the solver
// refactors from row 1 only. The result must equal the final passive
// system {2, 1} solved from scratch, bit for bit.
TEST(Nnls, WalkBackRefactorsFromFirstRemovedRow) {
  const Matrix a{{1.0, 0.9, 0.0}, {0.0, 0.1, 0.0}, {0.0, 0.0, 1.0}};
  const Vector b{0.4, 0.1, 2.0};
  const NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  // Three pivots in three outer iterations; column 0 entered and left.
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_EQ(r.x[0], 0.0);
  const Vector z = solve_from_scratch(a, b, {2, 1});
  EXPECT_EQ(r.x[2], z[0]);
  EXPECT_EQ(r.x[1], z[1]);
  EXPECT_NEAR(r.x[1], 0.37 / 0.82, 1e-9);
  EXPECT_NEAR(r.x[2], 2.0, 1e-9);
}

// Column 0 (squared norm 0.25) pivots first, then column 1 (squared norm 4)
// raises the largest passive diagonal, so the ridge changes and the solver
// refactors from row 0. The result must equal the passive system {0, 1}
// solved from scratch, bit for bit.
TEST(Nnls, RidgeChangeRefactorsFromRowZero) {
  const Matrix a{{0.5, 0.0}, {0.0, 2.0}, {0.0, 0.0}};
  const Vector b{2.0, 0.2, 0.0};
  const NnlsResult r = nnls(a, b);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
  const Vector z = solve_from_scratch(a, b, {0, 1});
  EXPECT_EQ(r.x[0], z[0]);
  EXPECT_EQ(r.x[1], z[1]);
  EXPECT_NEAR(r.x[0], 4.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.1, 1e-9);
}

// A prepared system with one workspace, reused across right-hand sides,
// gives the one-shot solver's bits.
TEST(Nnls, WarmWorkspaceMatchesOneShot) {
  const Matrix a = random_uniform_matrix(86, 12, 3, 0.0, 1.0);
  const NnlsSystem system(a);
  NnlsWorkspace workspace;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Vector b = random_uniform_vector(86, 100 + seed, -1.0, 2.0);
    const NnlsResult warm = nnls(system, b, {}, workspace);
    const NnlsResult cold = nnls(a, b);
    EXPECT_EQ(warm.x, cold.x) << "seed " << seed;
    EXPECT_EQ(warm.residual_norm, cold.residual_norm);
    EXPECT_EQ(warm.iterations, cold.iterations);
  }
}

}  // namespace
}  // namespace vn2::linalg
