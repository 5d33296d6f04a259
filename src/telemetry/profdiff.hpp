// Profile diffing: aligns two call-trees (calltree.hpp) by path and
// reports inclusive/exclusive wall-time deltas — the flamegraph-style
// span diff between two profile snapshots.
//
// Verdict semantics mirror the benchstat gate (src/benchstat/gate.hpp)
// adapted to single snapshots: a path regresses only when its inclusive
// wall time moved in the bad direction by more than the relative floor
// AND by more than an absolute floor. Profile snapshots carry one
// observation per path rather than repeated samples, so the absolute
// floor (default 1 ms) stands in for the gate's IQR-disjointness test:
// sub-millisecond spans swing by whole multiples on a busy host without
// meaning anything. Paths present on only one side are reported
// informationally and never fail the diff — a self-diff is always clean.
//
// `vn2 profile --diff` maps ProfDiffReport onto the observatory's shared
// exit codes: 0 = clean, 1 = regression, 2 = usage/parse error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/calltree.hpp"

namespace vn2::telemetry {

struct ProfDiffOptions {
  /// Inclusive wall time must move by more than this fraction before a
  /// path can regress or improve (0.15 = 15%, matching the benchstat
  /// gate's default noise floor).
  double relative_floor = 0.15;
  /// ...and by more than this many nanoseconds. The absolute floor keeps
  /// micro-spans (whose relative swing is all scheduler noise) quiet.
  std::uint64_t min_delta_ns = 1000000;
};

enum class PathVerdict {
  kOk,         ///< Matched, within both floors.
  kImproved,   ///< Significantly faster in the run.
  kRegressed,  ///< Significantly slower in the run.
  kNew,        ///< Path only in the run (informational).
  kVanished,   ///< Path only in the base (informational).
};

struct PathDelta {
  std::string path;
  PathVerdict verdict = PathVerdict::kOk;
  std::uint64_t base_wall_ns = 0;
  std::uint64_t run_wall_ns = 0;
  std::uint64_t base_excl_ns = 0;
  std::uint64_t run_excl_ns = 0;
  std::uint64_t base_count = 0;
  std::uint64_t run_count = 0;
  /// Relative inclusive-wall move: +0.25 = 25% slower, negative =
  /// faster. Zero for one-sided paths.
  double wall_delta = 0.0;
  /// Relative exclusive-wall move (the "is this node itself the
  /// culprit" signal; ancestors of a regressed leaf inherit its
  /// inclusive delta but keep a flat exclusive one).
  double excl_delta = 0.0;
};

struct ProfDiffReport {
  std::vector<PathDelta> deltas;  ///< Sorted by path.
  std::size_t compared = 0;       ///< Paths present on both sides.
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t added = 0;
  std::size_t vanished = 0;

  [[nodiscard]] bool failed() const { return regressions != 0; }
};

/// Aligns two flattened call-trees by path and classifies every delta.
[[nodiscard]] ProfDiffReport diff_call_trees(
    const std::vector<PathProfile>& base, const std::vector<PathProfile>& run,
    const ProfDiffOptions& options);

/// Human-readable report: noteworthy paths first, then a summary line.
[[nodiscard]] std::string render_text(const ProfDiffReport& report);

/// GitHub-flavoured markdown table of the same report.
[[nodiscard]] std::string render_markdown(const ProfDiffReport& report);

}  // namespace vn2::telemetry
