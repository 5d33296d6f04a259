// Runtime CPU feature detection for the SIMD kernel backend.
//
// The `simd` backend (kernels_simd.cpp) is compiled for a fixed target —
// AVX2+FMA on x86-64, NEON on aarch64 — so whether it may run is a
// *runtime* property of the host, not a build-time one. This header is the
// single source of truth for that decision: the process default and
// `set_backend()` consult it so neither ever selects a backend the CPU
// cannot execute, and the CLI consults it to turn a forced
// `--linalg-backend simd` on unsupported hardware into a clean usage error
// instead of SIGILL.
//
// Testing hook: setting the environment variable VN2_CPU_FEATURES=scalar
// masks every SIMD feature, so the unsupported-hardware paths (forced
// error, auto fallback) are exercisable on any machine. Detection is
// re-evaluated on every call — it is a handful of cached-cpuid reads — so
// tests can flip the mask without process restarts.
#pragma once

#include <string>

namespace vn2::linalg {

/// What the host CPU offers to the SIMD backend, after applying the
/// VN2_CPU_FEATURES mask.
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 AVX2 (256-bit integer/double lanes).
  bool fma = false;   ///< x86-64 FMA3.
  bool neon = false;  ///< aarch64 Advanced SIMD (baseline on AArch64).
  bool masked = false;  ///< VN2_CPU_FEATURES=scalar override is active.
};

/// Probes the host CPU (cpuid on x86-64, architecture baseline on
/// aarch64) and applies the VN2_CPU_FEATURES environment mask.
[[nodiscard]] CpuFeatures detect_cpu_features();

/// True when the host can execute the instruction set the SIMD kernels
/// were compiled for: AVX2+FMA on x86-64, NEON on aarch64. False on other
/// architectures and under VN2_CPU_FEATURES=scalar.
[[nodiscard]] bool simd_runtime_supported();

/// Human-readable summary for bench/report headers: "avx2+fma", "neon",
/// "scalar", or "scalar (masked by VN2_CPU_FEATURES)".
[[nodiscard]] std::string cpu_features_summary();

}  // namespace vn2::linalg
