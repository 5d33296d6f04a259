// Small dense linear solvers: Cholesky factorization/solve for SPD systems.
//
// NNLS's active-set inner step and the PCA deflation both solve systems of
// rank at most the NMF compression factor (r ≲ 50), so an O(k³) dense
// Cholesky is plenty. The row-level pieces (cholesky_row,
// cholesky_substitute) let NNLS grow a factor by one row per pivot: row i
// of L depends only on A's row i and L's rows < i, so a factor extended
// row by row is bit-identical to one computed in a single pass.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace vn2::linalg {

/// Solves A·x = b for symmetric positive-definite A via Cholesky.
/// Throws std::invalid_argument if A is not square / sizes mismatch, and
/// std::runtime_error if A is not (numerically) positive definite.
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// In-place lower-triangular Cholesky factor of an SPD matrix. Returns L with
/// A = L·Lᵀ. Throws std::runtime_error if a pivot falls below `min_pivot`.
Matrix cholesky_factor(const Matrix& a, double min_pivot = 1e-12);

/// Row i of a lower Cholesky factor, in place. `l` is row-major with
/// leading dimension `ld`; on entry rows [0, i) hold L and row i holds
/// A(i, 0..i], on exit row i holds L(i, 0..i]. Throws std::runtime_error
/// if the pivot falls below `min_pivot`.
void cholesky_row(double* l, std::size_t ld, std::size_t i,
                  double min_pivot = 1e-12);

/// Solves L·Lᵀ·x = b for an n × n factor L (row-major, leading dimension
/// `ld`): forward substitution L·y = b for rows [from, n), keeping
/// y[0, from) from an earlier call with the same leading rows, then back
/// substitution into x.
void cholesky_substitute(const double* l, std::size_t ld, std::size_t n,
                         const double* b, double* y, std::size_t from,
                         double* x);

}  // namespace vn2::linalg
