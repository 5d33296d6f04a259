#include "linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace vn2::linalg {

void cholesky_row(double* l, std::size_t ld, std::size_t i, double min_pivot) {
  VN2_REQUIRE(l != nullptr && i < ld, "cholesky_row: row outside the factor");
  double* li = l + i * ld;
  for (std::size_t j = 0; j <= i; ++j) {
    const double* lj = l + j * ld;
    double acc = li[j];
    for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
    if (i == j) {
      if (acc < min_pivot)
        throw std::runtime_error("cholesky_factor: matrix not SPD");
      li[j] = std::sqrt(acc);
    } else {
      li[j] = acc / lj[j];
    }
  }
  VN2_ASSERT(std::isfinite(li[i]) && li[i] > 0.0,
             "cholesky_factor: pivot must stay positive and finite");
}

void cholesky_substitute(const double* l, std::size_t ld, std::size_t n,
                         const double* b, double* y, std::size_t from,
                         double* x) {
  VN2_REQUIRE(n <= ld && from <= n,
              "cholesky_substitute: rows outside the factor");
  // Forward substitution: L·y = b.
  for (std::size_t i = from; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l[i * ld + k] * y[k];
    y[i] = acc / l[i * ld + i];
  }
  // Back substitution: Lᵀ·x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l[k * ld + ii] * x[k];
    x[ii] = acc / l[ii * ld + ii];
  }
}

Matrix cholesky_factor(const Matrix& a, double min_pivot) {
  VN2_CHECK(a.rows() == a.cols(), "cholesky_factor: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
    cholesky_row(l.data(), n, i, min_pivot);
  }
  return l;
}

Vector cholesky_solve(const Matrix& a, const Vector& b) {
  VN2_CHECK(a.rows() == b.size(), "cholesky_solve: size mismatch");
  const Matrix l = cholesky_factor(a);
  const std::size_t n = a.rows();
  Vector y(n);
  Vector x(n);
  cholesky_substitute(l.data(), n, n, b.data(), y.data(), 0, x.data());
  VN2_ASSERT(x.size() == b.size(),
             "cholesky_solve: solution length must match rhs");
  return x;
}

}  // namespace vn2::linalg
