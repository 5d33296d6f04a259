#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "linalg/solve.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::linalg {

namespace {

/// Sizes the workspace for an m × n system. Only a new shape allocates;
/// the counters let bench records check that a warm solve never does.
void fit_workspace(NnlsWorkspace& ws, std::size_t m, std::size_t n) {
  if (ws.c.size() == n && ws.residual.size() == m) return;
  VN2_COUNT("nnls.workspace.reallocs");
  VN2_COUNT_N("nnls.workspace.alloc_bytes",
              (n * n + 4 * n + m) * sizeof(double) + n * sizeof(std::size_t));
  ws.factor = Matrix(n, n);
  ws.c = Vector(n);
  ws.w = Vector(n);
  ws.y = Vector(n);
  ws.z = Vector(n);
  ws.residual = Vector(m);
  ws.passive.reserve(n);
}

/// Solves the passive system (G[P,P] + ridge·I)·z = c[P] into ws.z. Rows
/// [0, ws.factored) of the factor and of y are kept; the rows after them
/// are gathered from G and c, then factored and substituted.
void solve_passive(const Matrix& gram, NnlsWorkspace& ws) {
  const std::size_t k = ws.passive.size();
  const std::size_t n = gram.cols();
  const std::size_t* p = ws.passive.data();
  // Ridge scaled to the diagonal keeps Cholesky alive when columns are
  // nearly collinear (common for NMF bases learnt from correlated metrics).
  double diag_max = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    diag_max = std::max(diag_max, gram(p[i], p[i]));
  const double ridge = std::max(1e-12 * diag_max, 1e-300);
  if (ridge != ws.ridge) {
    ws.ridge = ridge;
    ws.factored = 0;
  }
  double* l = ws.factor.data();
  // The rhs c[P] is staged in z: forward substitution reads it before back
  // substitution overwrites z with the solution.
  double* rhs = ws.z.data();
  for (std::size_t i = ws.factored; i < k; ++i) {
    const double* g = gram.data() + p[i] * n;
    double* li = l + i * n;
    for (std::size_t j = 0; j <= i; ++j) li[j] = g[p[j]];
    li[i] += ridge;
    cholesky_row(l, n, i);
    rhs[i] = ws.c[p[i]];
  }
  cholesky_substitute(l, n, k, rhs, ws.y.data(), ws.factored, ws.z.data());
  ws.factored = k;
}

// Postconditions every NNLS solve must satisfy: the solution has one
// entry per column of A, every entry is non-negative (that is the whole
// point of NNLS), and the residual norm is a finite non-negative number.
void assert_feasible([[maybe_unused]] const Matrix& a,
                     [[maybe_unused]] const Vector& x,
                     [[maybe_unused]] double residual) {
#if VN2_CONTRACTS_ACTIVE
  VN2_ASSERT(x.size() == a.cols(), "nnls: solution length must match cols(A)");
  for (std::size_t j = 0; j < x.size(); ++j)
    VN2_ASSERT(x[j] >= 0.0, "nnls: solution must be non-negative");
  VN2_ASSERT(std::isfinite(residual) && residual >= 0.0,
             "nnls: residual norm must be finite and non-negative");
#endif
}

}  // namespace

NnlsSystem::NnlsSystem(Matrix a)
    : a_(std::move(a)),
      gram_(a_.cols(), a_.cols()),
      backend_(linalg::backend()) {
  kernels::syrk_upper(a_.data(), a_.rows(), a_.cols(), gram_.data());
}

NnlsResult nnls(const Matrix& a, const Vector& b, const NnlsOptions& options) {
  NnlsWorkspace workspace;
  return nnls(NnlsSystem(a), b, options, workspace);
}

NnlsResult nnls(const NnlsSystem& system, const Vector& b,
                const NnlsOptions& options, NnlsWorkspace& ws) {
  const Matrix& a = system.a();
  const Matrix& g = system.gram();
  VN2_CHECK(a.rows() == b.size(), "nnls: A rows must match b size");
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  const std::size_t max_iter = options.max_iterations
                                   ? options.max_iterations
                                   : 3 * std::max<std::size_t>(n, 1);
  fit_workspace(ws, m, n);
  VN2_COUNT("nnls.solves");

  // c = Aᵀb, row by row: each c[j] accumulates in ascending row order.
  std::fill(ws.c.begin(), ws.c.end(), 0.0);
  for (std::size_t r = 0; r < m; ++r)
    kernels::axpy(b[r], a.data() + r * n, ws.c.data(), n);

  Vector x(n, 0.0);
  std::vector<std::size_t>& passive = ws.passive;
  passive.clear();
  ws.factored = 0;
  ws.ridge = 0.0;
  std::size_t pivots = 0;
  bool converged = false;
  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    // Gradient w = c − G·x. x is zero off the passive set, so only the
    // passive rows of G (G is symmetric) are subtracted, in pivot order.
    double* w = ws.w.data();
    std::copy(ws.c.begin(), ws.c.end(), w);
    for (const std::size_t q : passive)
      kernels::axpy(-x[q], g.data() + q * n, w, n);
    // Select the most-violating active coordinate: passive ones are no
    // candidates, and the first maximum wins. Branch-free, because which
    // entry wins is data-dependent and unpredictable.
    for (const std::size_t q : passive)
      w[q] = -std::numeric_limits<double>::infinity();
    double best = options.tolerance;
    std::size_t best_j = n;
    for (std::size_t j = 0; j < n; ++j) {
      const bool better = w[j] > best;
      best = better ? w[j] : best;
      best_j = better ? j : best_j;
    }
    if (best_j == n) {
      // KKT satisfied: active gradients all ≤ tolerance.
      converged = true;
      break;
    }

    passive.push_back(best_j);
    ++pivots;

    // Inner loop: solve on the passive set; walk back any negative entries.
    while (true) {
      solve_passive(g, ws);
      const double* z = ws.z.data();
      bool all_positive = true;
      for (std::size_t i = 0; i < passive.size(); ++i)
        if (z[i] <= options.tolerance) all_positive = false;
      if (all_positive) {
        for (std::size_t i = 0; i < passive.size(); ++i) x[passive[i]] = z[i];
        break;
      }
      // Step length to the first coordinate hitting zero.
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < passive.size(); ++i) {
        if (z[i] <= options.tolerance) {
          const double xi = x[passive[i]];
          const double denom = xi - z[i];
          if (denom > 0.0) alpha = std::min(alpha, xi / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (std::size_t i = 0; i < passive.size(); ++i) {
        const std::size_t j = passive[i];
        x[j] += alpha * (z[i] - x[j]);
      }
      // Remove coordinates that reached (numerical) zero, keeping pivot
      // order: the factor stays valid up to the first removed row.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < passive.size(); ++i) {
        const std::size_t j = passive[i];
        if (x[j] > options.tolerance) {
          passive[kept++] = j;
        } else {
          x[j] = 0.0;
          ws.factored = std::min(ws.factored, i);
        }
      }
      passive.resize(kept);
      if (passive.empty()) break;
    }
  }
  VN2_COUNT_N("nnls.pivots", pivots);

  kernels::gemv(a.data(), x.data(), ws.residual.data(), m, n);
  ws.residual -= b;
  const double residual = norm2(ws.residual);
  assert_feasible(a, x, residual);
  return {std::move(x), residual, iter, converged};
}

}  // namespace vn2::linalg
