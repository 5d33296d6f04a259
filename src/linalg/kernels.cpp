// Kernel backend implementations. See kernels.hpp for the dispatch and
// reproducibility contract. The reference kernels live here; the simd
// bodies are in kernels_simd.cpp, compiled in whenever the architecture
// and compiler support them (kernels_simd.hpp).
#include "linalg/kernels.hpp"

#include <atomic>

#include "linalg/cpu_features.hpp"
#include "linalg/kernels_simd.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define VN2_RESTRICT __restrict__
#else
#define VN2_RESTRICT
#endif

namespace vn2::linalg {

namespace {

constexpr bool kSimdCompiled = VN2_SIMD_COMPILED != 0;

/// The fastest backend this build and host CPU can run: simd when
/// simd_available(), else reference.
Backend fastest_available() noexcept {
  return simd_available() ? Backend::kSimd : Backend::kReference;
}

// Resolved during static initialisation, so the process default is what
// the CPU supports (and what VN2_CPU_FEATURES leaves of it at start-up).
std::atomic<Backend> g_backend{fastest_available()};

// ---------------------------------------------------------------------------
// Reference kernels: the textbook scalar loops, kept as the semantics
// oracle. Each output element is one accumulator summed in ascending
// inner-index order.

void gemm_rows_reference(const double* VN2_RESTRICT a,
                         const double* VN2_RESTRICT b, double* VN2_RESTRICT c,
                         std::size_t k, std::size_t m, std::size_t row_begin,
                         std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * b[p * m + j];
      crow[j] = acc;
    }
  }
}

void gemv_reference(const double* VN2_RESTRICT a, const double* VN2_RESTRICT x,
                    double* VN2_RESTRICT y, std::size_t rows,
                    std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * cols;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += arow[j] * x[j];
    y[i] = acc;
  }
}

void syrk_upper_reference(const double* VN2_RESTRICT a, std::size_t rows,
                          std::size_t k, double* VN2_RESTRICT g) {
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r) acc += a[r * k + i] * a[r * k + j];
      g[i * k + j] = acc;
    }
  }
}

void mirror_lower(double* g, std::size_t k) {
  for (std::size_t i = 1; i < k; ++i)
    for (std::size_t j = 0; j < i; ++j) g[i * k + j] = g[j * k + i];
}

}  // namespace

void set_backend(Backend backend) noexcept {
  // Fallback chain simd → reference: never store a backend this build or
  // host cannot run, so the dispatch below needs no re-checks. (The
  // VN2_CPU_FEATURES mask is consulted here, at selection time; it does
  // not retroactively demote an already-selected backend.)
  if (backend == Backend::kSimd && !simd_available())
    backend = Backend::kReference;
  g_backend.store(backend, std::memory_order_relaxed);
}

Backend backend() noexcept {
  return g_backend.load(std::memory_order_relaxed);
}

bool simd_kernels_compiled() noexcept { return kSimdCompiled; }

bool simd_available() noexcept {
  return kSimdCompiled && simd_runtime_supported();
}

const char* backend_name(Backend backend) noexcept {
  return backend == Backend::kSimd ? "simd" : "reference";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "auto") return fastest_available();
  if (name == "reference") return Backend::kReference;
  if (name == "simd") return Backend::kSimd;
  return std::nullopt;
}

namespace kernels {

void gemm_rows(const double* a, const double* b, double* c, std::size_t k,
               std::size_t m, std::size_t row_begin, std::size_t row_end) {
#if VN2_SIMD_COMPILED
  if (backend() == Backend::kSimd) {
    simd::gemm_rows(a, b, c, k, m, row_begin, row_end);
    return;
  }
#endif
  gemm_rows_reference(a, b, c, k, m, row_begin, row_end);
}

void gemv(const double* a, const double* x, double* y, std::size_t rows,
          std::size_t cols) {
#if VN2_SIMD_COMPILED
  if (backend() == Backend::kSimd) {
    simd::gemv(a, x, y, rows, cols);
    return;
  }
#endif
  gemv_reference(a, x, y, rows, cols);
}

void syrk_upper(const double* a, std::size_t rows, std::size_t k, double* g) {
#if VN2_SIMD_COMPILED
  if (backend() == Backend::kSimd) {
    simd::syrk_upper(a, rows, k, g);
    mirror_lower(g, k);
    return;
  }
#endif
  syrk_upper_reference(a, rows, k, g);
  mirror_lower(g, k);
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#if VN2_SIMD_COMPILED
  if (backend() == Backend::kSimd) return simd::dot(a, b, n);
#endif
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, const double* VN2_RESTRICT x, double* VN2_RESTRICT y,
          std::size_t n) noexcept {
#if VN2_SIMD_COMPILED
  if (backend() == Backend::kSimd) {
    simd::axpy(alpha, x, y, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace kernels

}  // namespace vn2::linalg
