// Non-negative least squares:  argmin_x ‖A·x − b‖²  s.t. x ≥ 0.
//
// This is the inference kernel of VN2 (paper, Problem 3): a fresh node state
// s is explained as s ≈ wᵀ·Ψ with w ≥ 0, i.e. NNLS with A = Ψᵀ. The solver
// is Lawson–Hanson's active set on a prepared system (Bro & De Jong,
// J. Chemometrics 1997): the Gram matrix G = AᵀA is formed once per A, so a
// solve costs c = Aᵀb once and then only n-sized work per pivot:
//
//   * the gradient Aᵀ(b − A·x) is c − G·x, summed over the passive columns
//     (x is zero elsewhere);
//   * the passive system is a gather of G[P,P] and c[P], with a ridge of
//     1e-12 × the largest passive diagonal;
//   * its Cholesky factor grows by one row per pivot. It is refactored from
//     the first changed row when a coordinate leaves the passive set, and
//     from row 0 when the ridge changes.
//
// Each entry of G[P,P] and c[P] is one ascending-row chain of a commutative
// product, the chain SYRK over the gathered passive columns computes, and
// row i of a Cholesky factor depends only on the rows before it. So the
// solution is bit-identical to forming and factoring each passive system
// from scratch. Only the gradient rounds differently; it picks the pivot
// and tests the KKT conditions, nothing else.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace vn2::linalg {

struct NnlsOptions {
  /// KKT tolerance on the dual (gradient) entries.
  double tolerance = 1e-10;
  /// Safety cap on active-set iterations (3·n is the classical bound).
  std::size_t max_iterations = 0;  // 0 → 3 * cols
};

struct NnlsResult {
  Vector x;               ///< Non-negative solution.
  double residual_norm;   ///< ‖A·x − b‖₂ at the solution.
  std::size_t iterations; ///< Outer iterations used.
  bool converged;         ///< False only if the iteration cap was hit.
};

/// A prepared NNLS system: A (m × n) and its Gram matrix G = AᵀA, formed
/// once on the backend active at construction. Every solve against the
/// same A (one model's Ψᵀ, every state at the sink) reuses G.
class NnlsSystem {
 public:
  NnlsSystem() = default;
  explicit NnlsSystem(Matrix a);

  [[nodiscard]] const Matrix& a() const noexcept { return a_; }
  [[nodiscard]] const Matrix& gram() const noexcept { return gram_; }
  /// The kernel backend G was formed on.
  [[nodiscard]] Backend backend() const noexcept { return backend_; }

 private:
  Matrix a_;
  Matrix gram_;
  Backend backend_ = Backend::kReference;
};

/// Scratch for one solver, sized once per system shape: the passive-set
/// Cholesky factor, the n-sized vectors and one m-sized residual buffer.
/// A solve with a warm workspace allocates only its result, and is
/// bit-identical to a cold one (every buffer is overwritten before it is
/// read). Not thread-safe: use one workspace per concurrent solver (e.g.
/// one per parallel_for chunk slot).
struct NnlsWorkspace {
  Matrix factor;    ///< n × n; rows [0, factored) hold L of the passive system.
  Vector c;         ///< Aᵀb.
  Vector w;         ///< Gradient c − G·x.
  Vector y;         ///< Forward substitution L·y = c[P].
  Vector z;         ///< Passive-set least-squares solution.
  Vector residual;  ///< A·x − b (m entries).
  std::vector<std::size_t> passive;  ///< Passive columns in pivot order.
  std::size_t factored = 0;  ///< Leading rows of `factor` (and y) valid.
  double ridge = 0.0;        ///< Ridge those rows were factored with.
};

/// One-shot Lawson–Hanson NNLS: forms the system for A and solves it.
/// Throws on shape mismatch.
NnlsResult nnls(const Matrix& a, const Vector& b,
                const NnlsOptions& options = {});

/// Lawson–Hanson NNLS against a prepared system, recycling `workspace`.
NnlsResult nnls(const NnlsSystem& system, const Vector& b,
                const NnlsOptions& options, NnlsWorkspace& workspace);

}  // namespace vn2::linalg
