// SIMD kernel backend: explicit AVX2+FMA (x86-64) / NEON (aarch64)
// implementations of the linalg primitives. See kernels_simd.hpp for the
// determinism contract and kernels.hpp for the dispatch.
//
// Build notes:
//  * On x86-64 every function carries __attribute__((target("avx2,fma")))
//    so this TU compiles without -mavx2 in the global flags; the bodies
//    must only run after cpu_features.hpp reports the host supports them
//    (kernels.cpp's dispatch guarantees that).
//  * On aarch64 double-lane Advanced SIMD is baseline, so no attribute.
//  * Every multiply-accumulate is FUSED — vfmadd lanes in vector loops,
//    __builtin_fma in scalar remainders (which lowers to the hardware
//    instruction inside the target regions) — so one output element's
//    rounding is the same no matter which tile shape or remainder path
//    computed it. That is what makes results independent of row
//    partitioning (thread counts) while still differing from the unfused
//    reference backend by at most ~1 ulp per accumulation step.
#include "linalg/kernels_simd.hpp"

#if VN2_SIMD_COMPILED

#include <algorithm>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

#define VN2_RESTRICT __restrict__

namespace vn2::linalg::simd {

namespace {

#if defined(__x86_64__)

#define VN2_SIMD_TARGET __attribute__((target("avx2,fma")))

using vreg = __m256d;
constexpr std::size_t kLanes = 4;

VN2_SIMD_TARGET inline vreg vzero() { return _mm256_setzero_pd(); }
VN2_SIMD_TARGET inline vreg vload(const double* p) {
  return _mm256_loadu_pd(p);
}
VN2_SIMD_TARGET inline void vstore(double* p, vreg v) {
  _mm256_storeu_pd(p, v);
}
VN2_SIMD_TARGET inline vreg vsplat(double s) { return _mm256_set1_pd(s); }
VN2_SIMD_TARGET inline vreg vfmadd(vreg a, vreg b, vreg acc) {
  return _mm256_fmadd_pd(a, b, acc);
}
/// Fixed pairwise reduction order: (l0+l1) + (l2+l3).
VN2_SIMD_TARGET inline double vsum(vreg v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}

#elif defined(__aarch64__)

#define VN2_SIMD_TARGET

using vreg = float64x2_t;
constexpr std::size_t kLanes = 2;

inline vreg vzero() { return vdupq_n_f64(0.0); }
inline vreg vload(const double* p) { return vld1q_f64(p); }
inline void vstore(double* p, vreg v) { vst1q_f64(p, v); }
inline vreg vsplat(double s) { return vdupq_n_f64(s); }
inline vreg vfmadd(vreg a, vreg b, vreg acc) { return vfmaq_f64(acc, a, b); }
/// Fixed reduction order: l0 + l1.
inline double vsum(vreg v) {
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}

#endif

// Tile geometry. 4 A-rows × 2 vector registers of C columns per register
// tile (8 accumulator registers + one broadcast + two B strips stays well
// inside the 16-register AVX2/NEON file), with depth blocking: partial
// sums park in C between depth blocks, which extends each element's fused
// chain exactly (the parked value is the accumulator), so blocking never
// reassociates a sum.
constexpr std::size_t kRowsPerTile = 4;
constexpr std::size_t kColsPerTile = 2 * kLanes;
constexpr std::size_t kDepthPerBlock = 512;

// --------------------------------------------------------------------------
// GEMM register tiles. Vectorization is across OUTPUT COLUMNS: each lane
// owns one C element and accumulates its a[i][p]*b[p][j] products in
// ascending-p order, so lane assignment (and therefore the j grouping into
// 2-vector / 1-vector / scalar regions, which depends only on m) never
// reorders a sum.

VN2_SIMD_TARGET void gemm_tile_r4v2(const double* VN2_RESTRICT a,
                                    const double* VN2_RESTRICT b,
                                    double* VN2_RESTRICT c, std::size_t k,
                                    std::size_t m, std::size_t i,
                                    std::size_t j, std::size_t p0,
                                    std::size_t p1) {
  const double* arow[kRowsPerTile];
  for (std::size_t r = 0; r < kRowsPerTile; ++r) arow[r] = a + (i + r) * k;
  vreg acc[kRowsPerTile][2];
  for (std::size_t r = 0; r < kRowsPerTile; ++r) {
    if (p0 == 0) {
      acc[r][0] = vzero();
      acc[r][1] = vzero();
    } else {
      acc[r][0] = vload(c + (i + r) * m + j);
      acc[r][1] = vload(c + (i + r) * m + j + kLanes);
    }
  }
  const double* bpos = b + p0 * m + j;
  for (std::size_t p = p0; p < p1; ++p, bpos += m) {
    const vreg b0 = vload(bpos);
    const vreg b1 = vload(bpos + kLanes);
    for (std::size_t r = 0; r < kRowsPerTile; ++r) {
      const vreg av = vsplat(arow[r][p]);
      acc[r][0] = vfmadd(av, b0, acc[r][0]);
      acc[r][1] = vfmadd(av, b1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < kRowsPerTile; ++r) {
    vstore(c + (i + r) * m + j, acc[r][0]);
    vstore(c + (i + r) * m + j + kLanes, acc[r][1]);
  }
}

VN2_SIMD_TARGET void gemm_tile_r4v1(const double* VN2_RESTRICT a,
                                    const double* VN2_RESTRICT b,
                                    double* VN2_RESTRICT c, std::size_t k,
                                    std::size_t m, std::size_t i,
                                    std::size_t j, std::size_t p0,
                                    std::size_t p1) {
  const double* arow[kRowsPerTile];
  for (std::size_t r = 0; r < kRowsPerTile; ++r) arow[r] = a + (i + r) * k;
  vreg acc[kRowsPerTile];
  for (std::size_t r = 0; r < kRowsPerTile; ++r)
    acc[r] = p0 == 0 ? vzero() : vload(c + (i + r) * m + j);
  const double* bpos = b + p0 * m + j;
  for (std::size_t p = p0; p < p1; ++p, bpos += m) {
    const vreg b0 = vload(bpos);
    for (std::size_t r = 0; r < kRowsPerTile; ++r)
      acc[r] = vfmadd(vsplat(arow[r][p]), b0, acc[r]);
  }
  for (std::size_t r = 0; r < kRowsPerTile; ++r)
    vstore(c + (i + r) * m + j, acc[r]);
}

VN2_SIMD_TARGET void gemm_tile_r1v2(const double* VN2_RESTRICT a,
                                    const double* VN2_RESTRICT b,
                                    double* VN2_RESTRICT c, std::size_t k,
                                    std::size_t m, std::size_t i,
                                    std::size_t j, std::size_t p0,
                                    std::size_t p1) {
  const double* arow = a + i * k;
  vreg acc0, acc1;
  if (p0 == 0) {
    acc0 = vzero();
    acc1 = vzero();
  } else {
    acc0 = vload(c + i * m + j);
    acc1 = vload(c + i * m + j + kLanes);
  }
  const double* bpos = b + p0 * m + j;
  for (std::size_t p = p0; p < p1; ++p, bpos += m) {
    const vreg av = vsplat(arow[p]);
    acc0 = vfmadd(av, vload(bpos), acc0);
    acc1 = vfmadd(av, vload(bpos + kLanes), acc1);
  }
  vstore(c + i * m + j, acc0);
  vstore(c + i * m + j + kLanes, acc1);
}

VN2_SIMD_TARGET void gemm_tile_r1v1(const double* VN2_RESTRICT a,
                                    const double* VN2_RESTRICT b,
                                    double* VN2_RESTRICT c, std::size_t k,
                                    std::size_t m, std::size_t i,
                                    std::size_t j, std::size_t p0,
                                    std::size_t p1) {
  const double* arow = a + i * k;
  vreg acc = p0 == 0 ? vzero() : vload(c + i * m + j);
  const double* bpos = b + p0 * m + j;
  for (std::size_t p = p0; p < p1; ++p, bpos += m)
    acc = vfmadd(vsplat(arow[p]), vload(bpos), acc);
  vstore(c + i * m + j, acc);
}

/// Scalar-remainder columns [j, m) for one row: the same fused ascending-p
/// chain as a vector lane, parked in C across depth blocks.
VN2_SIMD_TARGET void gemm_row_scalar_tail(const double* VN2_RESTRICT a,
                                          const double* VN2_RESTRICT b,
                                          double* VN2_RESTRICT c,
                                          std::size_t k, std::size_t m,
                                          std::size_t i, std::size_t j,
                                          std::size_t p0, std::size_t p1) {
  const double* arow = a + i * k;
  double* crow = c + i * m;
  for (std::size_t jj = j; jj < m; ++jj) {
    double acc = p0 == 0 ? 0.0 : crow[jj];
    for (std::size_t p = p0; p < p1; ++p)
      acc = __builtin_fma(arow[p], b[p * m + jj], acc);
    crow[jj] = acc;
  }
}

/// One row block (4 rows or 1 row) over the depth range [p0, p1), sweeping
/// the column regions: full 2-vector strips, at most one 1-vector strip,
/// then the scalar tail. The region boundaries depend only on m.
VN2_SIMD_TARGET void gemm_block_r4(const double* VN2_RESTRICT a,
                                   const double* VN2_RESTRICT b,
                                   double* VN2_RESTRICT c, std::size_t k,
                                   std::size_t m, std::size_t i,
                                   std::size_t p0, std::size_t p1) {
  const std::size_t jfull = m - m % kColsPerTile;
  std::size_t j = 0;
  for (; j < jfull; j += kColsPerTile)
    gemm_tile_r4v2(a, b, c, k, m, i, j, p0, p1);
  if (j + kLanes <= m) {
    gemm_tile_r4v1(a, b, c, k, m, i, j, p0, p1);
    j += kLanes;
  }
  if (j < m)
    for (std::size_t r = 0; r < kRowsPerTile; ++r)
      gemm_row_scalar_tail(a, b, c, k, m, i + r, j, p0, p1);
}

VN2_SIMD_TARGET void gemm_block_r1(const double* VN2_RESTRICT a,
                                   const double* VN2_RESTRICT b,
                                   double* VN2_RESTRICT c, std::size_t k,
                                   std::size_t m, std::size_t i,
                                   std::size_t p0, std::size_t p1) {
  const std::size_t jfull = m - m % kColsPerTile;
  std::size_t j = 0;
  for (; j < jfull; j += kColsPerTile)
    gemm_tile_r1v2(a, b, c, k, m, i, j, p0, p1);
  if (j + kLanes <= m) {
    gemm_tile_r1v1(a, b, c, k, m, i, j, p0, p1);
    j += kLanes;
  }
  if (j < m) gemm_row_scalar_tail(a, b, c, k, m, i, j, p0, p1);
}

/// One row's dot-product against x: two lane-wise accumulators over
/// stride-2·kLanes, an optional single-vector step, a fixed-order
/// horizontal sum, then a fused scalar tail. The partial-sum split depends
/// only on n, so the result is a pure function of the operands. Shared by
/// dot() and gemv() so both reduce identically.
VN2_SIMD_TARGET double dot_fused(const double* VN2_RESTRICT a,
                                 const double* VN2_RESTRICT b, std::size_t n) {
  vreg acc0 = vzero();
  vreg acc1 = vzero();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    acc1 = vfmadd(vload(a + i + kLanes), vload(b + i + kLanes), acc1);
  }
  if (i + kLanes <= n) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    i += kLanes;
  }
  double sum = vsum(acc0) + vsum(acc1);
  for (; i < n; ++i) sum = __builtin_fma(a[i], b[i], sum);
  return sum;
}

}  // namespace

VN2_SIMD_TARGET void gemm_rows(const double* a, const double* b, double* c,
                               std::size_t k, std::size_t m,
                               std::size_t row_begin,
                               std::size_t row_end) noexcept {
  // Depth blocking: the row block's A panel (4 × 512 × 8 B = 16 KiB)
  // stays L1-resident while every column strip sweeps one depth block.
  // The do-while writes C's zeros even when k == 0.
  std::size_t i = row_begin;
  for (; i + kRowsPerTile <= row_end; i += kRowsPerTile) {
    std::size_t p0 = 0;
    do {
      const std::size_t p1 = std::min(p0 + kDepthPerBlock, k);
      gemm_block_r4(a, b, c, k, m, i, p0, p1);
      p0 = p1;
    } while (p0 < k);
  }
  for (; i < row_end; ++i) {
    std::size_t p0 = 0;
    do {
      const std::size_t p1 = std::min(p0 + kDepthPerBlock, k);
      gemm_block_r1(a, b, c, k, m, i, p0, p1);
      p0 = p1;
    } while (p0 < k);
  }
}

VN2_SIMD_TARGET void gemv(const double* a, const double* x, double* y,
                          std::size_t rows, std::size_t cols) noexcept {
  for (std::size_t i = 0; i < rows; ++i)
    y[i] = dot_fused(a + i * cols, x, cols);
}

VN2_SIMD_TARGET void syrk_upper(const double* a, std::size_t rows,
                                std::size_t k, double* g) noexcept {
  // Panel-of-4 rank-1 updates into the resident upper triangle, vectorized
  // across the j columns of each Gram row. Per element the four updates
  // chain in ascending-r order as fused ops — the same chain a lane or the
  // scalar remainder computes — so panel membership and the vector/scalar
  // j split (fixed by k) never change a sum.
  for (std::size_t i = 0; i < k; ++i) {
    double* grow = g + i * k;
    for (std::size_t j = i; j < k; ++j) grow[j] = 0.0;
  }
  std::size_t r = 0;
  for (; r + kRowsPerTile <= rows; r += kRowsPerTile) {
    const double* p0 = a + (r + 0) * k;
    const double* p1 = a + (r + 1) * k;
    const double* p2 = a + (r + 2) * k;
    const double* p3 = a + (r + 3) * k;
    for (std::size_t i = 0; i < k; ++i) {
      const double s0 = p0[i], s1 = p1[i], s2 = p2[i], s3 = p3[i];
      const vreg v0 = vsplat(s0);
      const vreg v1 = vsplat(s1);
      const vreg v2 = vsplat(s2);
      const vreg v3 = vsplat(s3);
      double* grow = g + i * k;
      std::size_t j = i;
      for (; j + kLanes <= k; j += kLanes) {
        vreg acc = vload(grow + j);
        acc = vfmadd(v0, vload(p0 + j), acc);
        acc = vfmadd(v1, vload(p1 + j), acc);
        acc = vfmadd(v2, vload(p2 + j), acc);
        acc = vfmadd(v3, vload(p3 + j), acc);
        vstore(grow + j, acc);
      }
      for (; j < k; ++j) {
        double acc = grow[j];
        acc = __builtin_fma(s0, p0[j], acc);
        acc = __builtin_fma(s1, p1[j], acc);
        acc = __builtin_fma(s2, p2[j], acc);
        acc = __builtin_fma(s3, p3[j], acc);
        grow[j] = acc;
      }
    }
  }
  for (; r < rows; ++r) {
    const double* prow = a + r * k;
    for (std::size_t i = 0; i < k; ++i) {
      const double si = prow[i];
      const vreg vi = vsplat(si);
      double* grow = g + i * k;
      std::size_t j = i;
      for (; j + kLanes <= k; j += kLanes)
        vstore(grow + j, vfmadd(vi, vload(prow + j), vload(grow + j)));
      for (; j < k; ++j) grow[j] = __builtin_fma(si, prow[j], grow[j]);
    }
  }
}

VN2_SIMD_TARGET double dot(const double* a, const double* b,
                           std::size_t n) noexcept {
  return dot_fused(a, b, n);
}

VN2_SIMD_TARGET void axpy(double alpha, const double* x, double* y,
                          std::size_t n) noexcept {
  const double* VN2_RESTRICT xp = x;
  double* VN2_RESTRICT yp = y;
  const vreg va = vsplat(alpha);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    vstore(yp + i, vfmadd(va, vload(xp + i), vload(yp + i)));
  for (; i < n; ++i) yp[i] = __builtin_fma(alpha, xp[i], yp[i]);
}

}  // namespace vn2::linalg::simd

#endif  // VN2_SIMD_COMPILED
