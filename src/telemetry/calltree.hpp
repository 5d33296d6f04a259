// Call-tree aggregation over path-keyed span statistics: turns the flat
// Snapshot::path_stats vector ("a", "a/b", "a/b/c") into a hierarchy with
// inclusive and exclusive wall/CPU time per node — the flamegraph view of
// a profile snapshot, and the input to profdiff.hpp.
//
// Semantics:
//  * Inclusive time is the span's own measured total (children run inside
//    it, so their time is already counted). Inclusive CPU sums across
//    threads, so a node fanned out by parallel_for can show cpu_ns far
//    above wall_ns — that is the parallelism, not an error.
//  * Exclusive time is inclusive minus the children's inclusive sum,
//    clamped at zero: spans attributed from pool workers overlap in wall
//    time, so a parent's children can legitimately sum past its own wall.
//  * Paths with missing ancestors ("a/b" recorded but never a bare "a",
//    e.g. when collection started mid-span) get synthesized intermediate
//    nodes with count == 0 whose inclusive time is their children's sum.
//  * Children are ordered by name, so two snapshots of the same workload
//    produce structurally identical trees (what makes diffing by path
//    deterministic).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vn2::telemetry {

/// One aggregated node of the call tree.
struct CallTreeNode {
  std::string name;  ///< Leaf span name ("nnls.solve").
  std::string path;  ///< Full "/"-joined path from the root.
  std::uint64_t count = 0;         ///< 0 = synthesized ancestor.
  std::uint64_t wall_ns = 0;       ///< Inclusive wall time.
  std::uint64_t cpu_ns = 0;        ///< Inclusive CPU, summed over threads.
  std::uint64_t excl_wall_ns = 0;  ///< Inclusive minus children, clamped.
  std::uint64_t excl_cpu_ns = 0;
  std::vector<CallTreeNode> children;  ///< Sorted by name.
};

struct CallTree {
  std::vector<CallTreeNode> roots;  ///< Sorted by name.

  [[nodiscard]] bool empty() const noexcept { return roots.empty(); }
};

/// Flat, path-keyed row of a call tree: the serialization unit behind the
/// snapshot JSON's "call_tree" section and the alignment unit of profdiff.
struct PathProfile {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t excl_wall_ns = 0;
  std::uint64_t excl_cpu_ns = 0;
};

/// Builds the tree from path-keyed span statistics (Snapshot::path_stats;
/// SpanStats::name holds the "/"-joined path). Throws std::invalid_argument
/// on an empty or "/"-bounded path entry.
[[nodiscard]] CallTree build_call_tree(
    const std::vector<SpanStats>& path_stats);

/// Flattens a tree into preorder (parent before children, siblings by
/// name) with exclusive times precomputed.
[[nodiscard]] std::vector<PathProfile> flatten(const CallTree& tree);

/// Human-readable indented rendering (two spaces per level) with
/// inclusive/exclusive/CPU milliseconds per node.
[[nodiscard]] std::string render_call_tree(const CallTree& tree);

/// Reads the "call_tree" section of a profile snapshot written by
/// write_json (sink.hpp), parsing the whole document with json.hpp.
/// Throws std::runtime_error when the document is not valid JSON, has no
/// such section, or an entry misses one of its five counts or holds one
/// that is not a non-negative integer.
[[nodiscard]] std::vector<PathProfile> read_call_tree_json(
    std::string_view text);

}  // namespace vn2::telemetry
