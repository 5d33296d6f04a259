// Pluggable dense-kernel backends for the linalg hot paths.
//
// Every expensive operation in the analysis pipeline — NMF multiplicative
// updates, the NNLS Gram solves, batch diagnosis — reduces to the handful
// of primitives declared here (GEMM over a row range, GEMV, SYRK-style
// Gram, dot, axpy). Two implementations sit behind one dispatch point:
//
//   * reference — the straightforward scalar loops the repo started with,
//     kept as the semantics oracle for parity testing and as the fallback
//     on hosts without SIMD.
//   * simd      — explicit AVX2+FMA (x86-64) / NEON (aarch64) kernels
//     (kernels_simd.cpp), compiled in whenever the architecture and
//     compiler support them. Compiled for a fixed instruction set, so
//     whether it may RUN is a runtime property: set_backend(kSimd) only
//     engages it when cpu_features.hpp reports the host supports it, and
//     falls back to reference otherwise (observable via backend()).
//
// Reproducibility contract: each backend accumulates each output element
// in one fixed index order, so results never depend on tile boundaries or
// on how the caller partitions rows across threads — each backend is
// bit-identical run-to-run and across thread counts. ACROSS backends
// agreement is tolerance-based: simd stays within 1e-12 relative of
// reference (tests/linalg_backend_test.cpp), because it uses fused
// multiply-adds throughout and lane-wise partial sums for its reductions
// (dot/gemv), which round differently from the scalar chains.
//
// The backend is process-global (an atomic, like core::set_num_threads).
// The process starts on the fastest backend the host CPU supports (simd
// when simd_available(), else reference); `set_backend()` from code and
// `--linalg-backend {auto,reference,simd}` from the CLI override it
// ("auto" names that same default).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace vn2::linalg {

/// Kernel implementation families.
enum class Backend {
  kReference,
  kSimd,
};

/// Selects the process-global backend. Requesting kSimd where it cannot
/// run (no simd kernels for this architecture/compiler, or a host CPU
/// without the instruction set) silently resolves to kReference
/// (backend() reports what actually runs; callers that must fail loudly,
/// like the CLI's forced --linalg-backend simd, check simd_available()
/// first). Call from the main thread between parallel regions, like
/// core::set_num_threads.
void set_backend(Backend backend) noexcept;

/// The backend every kernel currently dispatches to. Until the first
/// set_backend() call this is the fastest available one (see "auto").
[[nodiscard]] Backend backend() noexcept;

/// True when the simd kernels were compiled in (a supported
/// compiler/architecture: GCC or Clang on x86-64 or aarch64).
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when the simd backend can actually run here: compiled in AND the
/// host CPU passes cpu_features.hpp's runtime check (AVX2+FMA / NEON,
/// after the VN2_CPU_FEATURES test mask).
[[nodiscard]] bool simd_available() noexcept;

/// "reference" / "simd".
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Parses a --linalg-backend value: "auto" (the fastest available: simd
/// when simd_available(), else reference — the process default),
/// "reference", or "simd". Returns nullopt on anything else. "auto" never
/// names a backend this build/host cannot run.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

namespace kernels {

/// C rows [row_begin, row_end) of the product A(n×k)·B(k×m), row-major raw
/// pointers, overwriting the output rows. Rows are independent, so callers
/// partition [0, n) across threads however they like without affecting
/// results. No sparsity shortcuts: NaN/Inf in either operand propagate per
/// IEEE semantics.
void gemm_rows(const double* a, const double* b, double* c, std::size_t k,
               std::size_t m, std::size_t row_begin, std::size_t row_end);

/// y = A(rows×cols)·x, overwriting y.
void gemv(const double* a, const double* x, double* y, std::size_t rows,
          std::size_t cols);

/// G(k×k) = AᵀA for row-major A(rows×k): the SYRK-style Gram kernel behind
/// NNLS's passive-set solve. Computes the upper triangle and mirrors it;
/// G is overwritten.
void syrk_upper(const double* a, std::size_t rows, std::size_t k, double* g);

/// Euclidean dot product over n entries. reference is one scalar chain;
/// simd uses lane-wise partial sums (deterministic, tolerance parity vs
/// reference).
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// y += alpha·x over n entries. reference is one scalar loop; simd fuses
/// each element's multiply-add.
void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;

}  // namespace kernels

}  // namespace vn2::linalg
