// Parity and determinism tests for the pluggable kernel backends
// (linalg/kernels.hpp). The reference backend is the semantics oracle: the
// simd backend must agree with it on every shape the pipeline produces —
// including empty, single-row/column, and sizes that don't divide the tile
// geometry — to ≤1e-12 relative (the parity policy in DESIGN.md: fused
// multiply-adds and lane-wise reductions round differently), and every
// backend must be bit-identical across thread counts and run-to-run. The
// selection logic — the process default, runtime cpuid, the
// VN2_CPU_FEATURES=scalar mask, and the guarantee that "auto" never names
// an unsupported backend — is covered at the top and bottom.
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/random.hpp"

namespace vn2::linalg {
namespace {

/// simd-vs-reference agreement bound (see header comment).
constexpr double kRelTol = 1e-12;

/// Every backend this build + host can actually run.
std::vector<Backend> runnable_backends() {
  std::vector<Backend> backends = {Backend::kReference};
  if (simd_available()) backends.push_back(Backend::kSimd);
  return backends;
}

/// Applies the VN2_CPU_FEATURES=scalar cpuid mask for one scope.
class CpuMaskGuard {
 public:
  CpuMaskGuard() { setenv("VN2_CPU_FEATURES", "scalar", 1); }
  ~CpuMaskGuard() { unsetenv("VN2_CPU_FEATURES"); }
};

/// Restores the process-global backend and thread budget on scope exit so
/// test order cannot leak state.
class GlobalStateGuard {
 public:
  GlobalStateGuard()
      : backend_(backend()), threads_(core::num_threads()) {}
  ~GlobalStateGuard() {
    set_backend(backend_);
    core::set_num_threads(threads_);
  }

 private:
  Backend backend_;
  std::size_t threads_;
};

void expect_close(const Matrix& a, const Matrix& b, double rel = kRelTol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale =
        std::max({std::abs(a.data()[i]), std::abs(b.data()[i]), 1.0});
    EXPECT_NEAR(a.data()[i], b.data()[i], rel * scale) << "flat index " << i;
  }
}

void expect_close(const Vector& a, const Vector& b, double rel = kRelTol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    EXPECT_NEAR(a[i], b[i], rel * scale) << "index " << i;
  }
}

struct GemmShape {
  std::size_t n, k, m;
};

// Empty, degenerate, tile-exact, tile-straddling, and the pipeline's
// 86-column encoded width.
const std::vector<GemmShape>& gemm_shapes() {
  static const std::vector<GemmShape> shapes = {
      {0, 0, 0}, {0, 3, 4},  {1, 7, 3},   {5, 1, 3},   {3, 7, 1},
      {4, 8, 16}, {8, 16, 32}, {5, 17, 7}, {6, 9, 13},  {13, 5, 19},
      {30, 86, 25}, {25, 30, 86},
  };
  return shapes;
}

Matrix signed_random(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  return random_uniform_matrix(rows, cols, seed, -1.5, 2.0);
}

// Each TEST runs in its own process under ctest (gtest_discover_tests),
// and every other case restores the backend it found, so this sees the
// default chosen at start-up: the fastest backend the CPU supports — also
// under VN2_CPU_FEATURES=scalar, where that is reference.
TEST(LinalgBackend, DefaultIsFastestAvailable) {
  EXPECT_EQ(backend(), simd_available() ? Backend::kSimd : Backend::kReference);
}

TEST(LinalgBackend, ParseAndNames) {
  EXPECT_EQ(parse_backend("reference"), Backend::kReference);
  EXPECT_EQ(parse_backend("simd"), Backend::kSimd);
  ASSERT_TRUE(parse_backend("auto").has_value());
  EXPECT_FALSE(parse_backend("fast").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_STREQ(backend_name(Backend::kReference), "reference");
  EXPECT_STREQ(backend_name(Backend::kSimd), "simd");
}

TEST(LinalgBackend, SetBackendRespectsCompileGate) {
  GlobalStateGuard guard;
  set_backend(Backend::kReference);
  EXPECT_EQ(backend(), Backend::kReference);
  set_backend(Backend::kSimd);
  // Compiled out or unsupported CPU: falls back to reference.
  EXPECT_EQ(backend(), simd_available() ? Backend::kSimd : Backend::kReference);
}

// "auto" must resolve to a backend that actually engages: setting it must
// never trigger the fallback chain, on any build/host combination.
TEST(LinalgBackend, AutoNeverSelectsUnsupportedBackend) {
  GlobalStateGuard guard;
  const auto resolved = parse_backend("auto");
  ASSERT_TRUE(resolved.has_value());
  set_backend(*resolved);
  EXPECT_EQ(backend(), *resolved);
  EXPECT_EQ(*resolved, simd_available() ? Backend::kSimd : Backend::kReference);
}

TEST(LinalgBackend, GemmParityAcrossShapes) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  core::set_num_threads(1);
  std::uint64_t seed = 0xb10c5eed01ULL;
  for (const GemmShape& s : gemm_shapes()) {
    const Matrix a = signed_random(s.n, s.k, seed++);
    const Matrix b = signed_random(s.k, s.m, seed++);
    set_backend(Backend::kReference);
    const Matrix expected = matmul(a, b);
    set_backend(Backend::kSimd);
    const Matrix actual = matmul(a, b);
    SCOPED_TRACE(::testing::Message() << s.n << "x" << s.k << "x" << s.m);
    expect_close(expected, actual);
  }
}

TEST(LinalgBackend, GemvParityAcrossShapes) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  std::uint64_t seed = 0xb10c5eed02ULL;
  for (const GemmShape& s : gemm_shapes()) {
    const Matrix a = signed_random(s.n, s.k, seed++);
    const Vector x = random_uniform_vector(s.k, seed++, -2.0, 2.0);
    set_backend(Backend::kReference);
    const Vector expected = matvec(a, x);
    set_backend(Backend::kSimd);
    const Vector actual = matvec(a, x);
    SCOPED_TRACE(::testing::Message() << "shape " << s.n << "x" << s.k);
    expect_close(expected, actual);
  }
}

TEST(LinalgBackend, SyrkParityAcrossShapes) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  std::uint64_t seed = 0xb10c5eed03ULL;
  for (const GemmShape& s : gemm_shapes()) {
    const std::size_t rows = s.n, k = s.m;
    const Matrix a = signed_random(rows, k, seed++);
    Matrix expected(k, k), actual(k, k);
    set_backend(Backend::kReference);
    kernels::syrk_upper(a.data(), rows, k, expected.data());
    set_backend(Backend::kSimd);
    kernels::syrk_upper(a.data(), rows, k, actual.data());
    SCOPED_TRACE(::testing::Message() << "shape " << rows << "x" << k);
    expect_close(expected, actual);
    // The mirror must make G exactly symmetric in every backend.
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_EQ(actual(i, j), actual(j, i));
  }
}

// simd's dot uses lane-wise partial sums and axpy fuses the multiply-add,
// so vs the scalar chain they are tolerance-parity, not bit-equal.
TEST(LinalgBackend, DotAndAxpySimdParity) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  for (const std::size_t n : {0ul, 1ul, 3ul, 8ul, 259ul, 4096ul}) {
    const Vector a = random_uniform_vector(n, 177, -3.0, 3.0);
    const Vector b = random_uniform_vector(n, 178, -3.0, 3.0);
    set_backend(Backend::kReference);
    const double dot_ref = kernels::dot(a.data(), b.data(), n);
    Vector y_ref(n, 0.5);
    kernels::axpy(1.25, a.data(), y_ref.data(), n);
    set_backend(Backend::kSimd);
    const double dot_simd = kernels::dot(a.data(), b.data(), n);
    Vector y_simd(n, 0.5);
    kernels::axpy(1.25, a.data(), y_simd.data(), n);
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const double scale = std::max({std::abs(dot_ref), std::abs(dot_simd),
                                   1.0});
    EXPECT_NEAR(dot_ref, dot_simd, kRelTol * scale);
    expect_close(y_ref, y_simd, kRelTol);
    // Within the backend, repeating the call reproduces every bit.
    EXPECT_EQ(dot_simd, kernels::dot(a.data(), b.data(), n));
  }
}

// Determinism contract: re-partitioning rows across threads must not
// change a single bit, in any backend.
TEST(LinalgBackend, MatmulBitIdenticalAcrossThreadCounts) {
  GlobalStateGuard guard;
  const Matrix a = signed_random(97, 43, 1001);
  const Matrix b = signed_random(43, 86, 1002);
  for (Backend be : runnable_backends()) {
    set_backend(be);
    core::set_num_threads(1);
    const Matrix serial = matmul(a, b);
    for (std::size_t threads : {2ul, 8ul}) {
      core::set_num_threads(threads);
      const Matrix parallel = matmul(a, b);
      EXPECT_EQ(serial, parallel)
          << backend_name(be) << " at " << threads << " threads";
    }
  }
}

// Run-to-run reproducibility within the simd backend, across the kernels
// the pipeline leans on (GEMM, GEMV, SYRK): two identical calls must agree
// on every bit.
TEST(LinalgBackend, SimdRunToRunBitIdentical) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  set_backend(Backend::kSimd);
  core::set_num_threads(2);
  const Matrix a = signed_random(53, 86, 3001);
  const Matrix b = signed_random(86, 25, 3002);
  const Vector x = random_uniform_vector(86, 3003, -2.0, 2.0);
  EXPECT_EQ(matmul(a, b), matmul(a, b));
  EXPECT_EQ(matvec(a, x), matvec(a, x));
  Matrix g1(86, 86), g2(86, 86);
  kernels::syrk_upper(a.data(), 53, 86, g1.data());
  kernels::syrk_upper(a.data(), 53, 86, g2.data());
  EXPECT_EQ(g1, g2);
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation. The old kernels skipped multiplies when an operand
// was exactly 0.0, silently turning 0·NaN into 0 (IEEE says NaN) and hiding
// corrupt inputs. Every kernel must now propagate non-finite values.

TEST(LinalgBackend, MatmulPropagatesNanThroughZeroOperands) {
  GlobalStateGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // a's second column is 0 except for a NaN; the old `if (aip == 0.0)
  // continue;` skip never fired on NaN, but the symmetric B-side skip in
  // other codebases does — pin the IEEE behaviour for both operands.
  Matrix a = {{0.0, nan}, {1.0, 0.0}};
  Matrix b = {{1.0, 0.0}, {0.0, 1.0}};
  for (Backend be : runnable_backends()) {
    set_backend(be);
    const Matrix c = matmul(a, b);
    // Row 0 mixes NaN into every column: 0·1 + NaN·0 = NaN.
    EXPECT_TRUE(std::isnan(c(0, 0))) << backend_name(be);
    EXPECT_TRUE(std::isnan(c(0, 1))) << backend_name(be);
    // Row 1 is NaN-free and stays finite.
    EXPECT_EQ(c(1, 0), 1.0);
    EXPECT_EQ(c(1, 1), 0.0);
  }
}

TEST(LinalgBackend, MatvecAndVecmatPropagateNonFinite) {
  GlobalStateGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = {{0.0, 1.0}, {2.0, 0.0}};
  const Vector x{nan, 3.0};
  const Vector w{inf, 0.0};
  for (Backend be : runnable_backends()) {
    set_backend(be);
    const Vector y = matvec(a, x);  // y[0] = 0·NaN + 1·3 = NaN
    EXPECT_TRUE(std::isnan(y[0])) << backend_name(be);
    EXPECT_TRUE(std::isnan(y[1])) << backend_name(be);
    const Vector z = vecmat(w, a);  // z[1] = Inf·1 + 0·0 = Inf
    EXPECT_TRUE(std::isnan(z[0])) << backend_name(be);  // Inf·0 = NaN
    EXPECT_EQ(z[1], inf) << backend_name(be);
  }
}

TEST(LinalgBackend, GemmRowRangeMatchesFullProduct) {
  GlobalStateGuard guard;
  const std::size_t n = 11, k = 7, m = 18;
  const Matrix a = signed_random(n, k, 2001);
  const Matrix b = signed_random(k, m, 2002);
  for (Backend be : runnable_backends()) {
    set_backend(be);
    Matrix full(n, m), pieces(n, m);
    kernels::gemm_rows(a.data(), b.data(), full.data(), k, m, 0, n);
    // Uneven three-way split: partitioning must not change anything.
    kernels::gemm_rows(a.data(), b.data(), pieces.data(), k, m, 0, 3);
    kernels::gemm_rows(a.data(), b.data(), pieces.data(), k, m, 3, 10);
    kernels::gemm_rows(a.data(), b.data(), pieces.data(), k, m, 10, n);
    EXPECT_EQ(full, pieces) << backend_name(be);
  }
}

// ---------------------------------------------------------------------------
// Runtime CPU dispatch. VN2_CPU_FEATURES=scalar masks cpuid (the
// unsupported-hardware testing hook, re-evaluated on every call), which
// must make the simd backend unavailable, make set_backend(kSimd) fall
// back to reference, and steer "auto" to reference — on every build.

TEST(LinalgBackend, CpuMaskHidesSimdFeatures) {
  CpuMaskGuard mask;
  const CpuFeatures features = detect_cpu_features();
  EXPECT_TRUE(features.masked);
  EXPECT_FALSE(features.avx2);
  EXPECT_FALSE(features.fma);
  EXPECT_FALSE(features.neon);
  EXPECT_FALSE(simd_runtime_supported());
  EXPECT_FALSE(simd_available());
  EXPECT_EQ(cpu_features_summary(), "scalar (masked by VN2_CPU_FEATURES)");
}

TEST(LinalgBackend, ForcedSimdFallsBackUnderCpuMask) {
  GlobalStateGuard guard;
  CpuMaskGuard mask;
  set_backend(Backend::kSimd);
  // Clean fallback to reference, never an unsupported selection (loud
  // failure is the CLI's job, which checks simd_available() before calling
  // set_backend).
  EXPECT_EQ(backend(), Backend::kReference);
}

TEST(LinalgBackend, AutoUnderCpuMaskAvoidsSimd) {
  GlobalStateGuard guard;
  CpuMaskGuard mask;
  const auto resolved = parse_backend("auto");
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, Backend::kReference);
  set_backend(*resolved);
  EXPECT_EQ(backend(), *resolved);
}

// The mask applies at selection time; kernels selected before it appeared
// keep running (and produce identical results — the mask never changes
// arithmetic, only dispatch).
TEST(LinalgBackend, CpuMaskOnlyAffectsSelectionTime) {
  if (!simd_available()) GTEST_SKIP() << "simd backend unavailable here";
  GlobalStateGuard guard;
  set_backend(Backend::kSimd);
  const Matrix a = signed_random(9, 12, 4001);
  const Matrix b = signed_random(12, 10, 4002);
  const Matrix before = matmul(a, b);
  {
    CpuMaskGuard mask;
    EXPECT_EQ(backend(), Backend::kSimd);  // still selected
    EXPECT_EQ(matmul(a, b), before);
  }
}

}  // namespace
}  // namespace vn2::linalg
