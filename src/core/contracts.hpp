// Contract assertions for VN2's numeric pipeline.
//
// Three macros guard the analysis hot paths:
//
//   VN2_CHECK(cond, what)    — precondition that must hold in EVERY build
//                              mode (shape agreement at a public API
//                              boundary). Always throws on violation; this
//                              is the one mechanism behind the library's
//                              "throws std::invalid_argument on bad input"
//                              promise, replacing the old pattern of a
//                              VN2_REQUIRE duplicated by a hand-rolled
//                              throw of the same predicate.
//   VN2_REQUIRE(cond, what)  — precondition at an API boundary that is
//                              compiled out of Release (rank bounds,
//                              schema length: conditions a correct caller
//                              makes structurally impossible).
//   VN2_ASSERT(cond, what)   — internal invariant / postcondition (NMF
//                              factors stay non-negative, NNLS output is
//                              feasible, Cholesky pivots are positive).
//
// VN2_REQUIRE and VN2_ASSERT follow NDEBUG: active in Debug builds, and
// compiled to nothing in Release builds, so the hot paths carry zero
// overhead (verified against the BENCH_parallel*.json baselines). All
// three throw ContractViolation, which derives from std::invalid_argument
// so call sites that already promise std::invalid_argument on bad input
// keep that promise in every build mode.
//
// This header lives in core/ but depends on nothing else in VN2 (like
// core/parallel.hpp, it ships in the base vn2_parallel library), so the
// lower layers (linalg, nmf) can assert contracts without a cycle.
#pragma once

#include <stdexcept>
#include <string>

namespace vn2::core {

/// Thrown when an active contract is violated. Derives from
/// std::invalid_argument: a violated VN2_REQUIRE is an invalid call.
class ContractViolation : public std::invalid_argument {
 public:
  ContractViolation(const char* kind, const char* expr, const char* what,
                    const char* file, long line)
      : std::invalid_argument(std::string(kind) + " violated: " + what +
                              " [" + expr + "] at " + file + ":" +
                              std::to_string(line)) {}
};

/// True when this build was compiled with contracts active (NDEBUG
/// undefined). Compiled into the library so tests can ask the library —
/// not their own translation unit — whether assertions will fire.
[[nodiscard]] bool contracts_active() noexcept;

namespace detail {

[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* what, const char* file,
                                         long line) {
  throw ContractViolation(kind, expr, what, file, line);
}

}  // namespace detail
}  // namespace vn2::core

#ifndef NDEBUG
#define VN2_CONTRACTS_ACTIVE 1
#else
#define VN2_CONTRACTS_ACTIVE 0
#endif

// Always-on precondition: one check, one error path, in every build mode.
#define VN2_CHECK(cond, what)                                            \
  do {                                                                   \
    if (!(cond))                                                         \
      ::vn2::core::detail::contract_failed("precondition", #cond, what,  \
                                           __FILE__, __LINE__);          \
  } while (false)

#if VN2_CONTRACTS_ACTIVE
#define VN2_REQUIRE(cond, what)                                          \
  do {                                                                   \
    if (!(cond))                                                         \
      ::vn2::core::detail::contract_failed("precondition", #cond, what,  \
                                           __FILE__, __LINE__);          \
  } while (false)
#define VN2_ASSERT(cond, what)                                           \
  do {                                                                   \
    if (!(cond))                                                         \
      ::vn2::core::detail::contract_failed("invariant", #cond, what,     \
                                           __FILE__, __LINE__);          \
  } while (false)
#else
#define VN2_REQUIRE(cond, what) \
  do {                          \
  } while (false)
#define VN2_ASSERT(cond, what) \
  do {                         \
  } while (false)
#endif
