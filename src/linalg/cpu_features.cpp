#include "linalg/cpu_features.hpp"

#include <cstdlib>
#include <cstring>

namespace vn2::linalg {

namespace {

/// The VN2_CPU_FEATURES mask: "scalar" hides every SIMD feature (the
/// testing hook for unsupported-hardware paths); anything else — unset,
/// empty, or "native" — means "report what the CPU really has".
bool mask_active() {
  const char* value = std::getenv("VN2_CPU_FEATURES");
  return value != nullptr && std::strcmp(value, "scalar") == 0;
}

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures features;
  features.masked = mask_active();
  if (features.masked) return features;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // kernels.cpp picks the default backend during static initialisation,
  // possibly before the runtime's own cpuid constructor has run.
  __builtin_cpu_init();
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.fma = __builtin_cpu_supports("fma") != 0;
#elif defined(__aarch64__)
  // Advanced SIMD (NEON) with double-precision lanes is part of the
  // AArch64 baseline; there is nothing to probe.
  features.neon = true;
#endif
  return features;
}

bool simd_runtime_supported() {
  const CpuFeatures features = detect_cpu_features();
  return (features.avx2 && features.fma) || features.neon;
}

std::string cpu_features_summary() {
  const CpuFeatures features = detect_cpu_features();
  if (features.masked) return "scalar (masked by VN2_CPU_FEATURES)";
  if (features.avx2 && features.fma) return "avx2+fma";
  if (features.avx2) return "avx2";
  if (features.neon) return "neon";
  return "scalar";
}

}  // namespace vn2::linalg
