// Internal declarations for the SIMD kernel backend (kernels_simd.cpp).
//
// Not part of the public linalg API: callers go through the dispatch in
// kernels.hpp (the process default wherever the CPU supports it, or
// `set_backend(Backend::kSimd)` / `--linalg-backend simd`). This header
// exists so kernels.cpp can dispatch into the SIMD TU and so both TUs
// agree — via VN2_SIMD_COMPILED — on whether the SIMD bodies exist in
// this build, which depends only on the architecture and compiler.
//
// Determinism contract of the SIMD kernels (see DESIGN.md "Linalg kernel
// backends" for the full policy):
//
//  * Every output element is accumulated in the same index order as the
//    reference backend, but each step is a FUSED multiply-add — vector
//    fmadd lanes in the main loops, __builtin_fma in remainder tails —
//    so an element's arithmetic is identical no matter which tile shape,
//    column group, or row partition computed it. Results are therefore
//    bit-identical run-to-run and across thread counts *within* this
//    backend.
//  * Reductions (dot, gemv rows) split the sum into fixed lane-wise
//    partials combined in a fixed order; that reordering (and FMA
//    contraction) is why cross-backend agreement is tolerance-based
//    (≤1e-12 relative) rather than bit-exact.
#pragma once

#include <cstddef>

// The SIMD bodies exist when the target is one the kernels are written
// for: AVX2+FMA on x86-64 or NEON on aarch64, under a GNU-flavoured
// compiler (target attributes + intrinsics).
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__aarch64__))
#define VN2_SIMD_COMPILED 1
#else
#define VN2_SIMD_COMPILED 0
#endif

#if VN2_SIMD_COMPILED

namespace vn2::linalg::simd {

/// C rows [row_begin, row_end) of A(n×k)·B(k×m); same contract as
/// kernels::gemm_rows. Safe to call only when simd_runtime_supported().
void gemm_rows(const double* a, const double* b, double* c, std::size_t k,
               std::size_t m, std::size_t row_begin,
               std::size_t row_end) noexcept;

/// y = A(rows×cols)·x; same contract as kernels::gemv.
void gemv(const double* a, const double* x, double* y, std::size_t rows,
          std::size_t cols) noexcept;

/// Upper triangle of G(k×k) = AᵀA; the caller mirrors the lower triangle
/// (kernels.cpp does this for every backend).
void syrk_upper(const double* a, std::size_t rows, std::size_t k,
                double* g) noexcept;

/// Euclidean dot product over n entries (lane-wise partial sums).
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// y += alpha·x over n entries (fused multiply-add per element).
void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;

}  // namespace vn2::linalg::simd

#endif  // VN2_SIMD_COMPILED
