#include "telemetry/calltree.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/contracts.hpp"
#include "telemetry/json.hpp"

namespace vn2::telemetry {

namespace {

/// Mutable tree under construction: children keyed by name, so sibling
/// ordering is deterministic by construction.
struct BuildNode {
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  bool measured = false;  ///< False until a path entry lands exactly here.
  std::map<std::string, BuildNode> children;
};

CallTreeNode finish(std::string name, std::string path, BuildNode&& build) {
  CallTreeNode node;
  node.name = std::move(name);
  node.path = std::move(path);
  node.count = build.count;
  std::uint64_t child_wall = 0;
  std::uint64_t child_cpu = 0;
  for (auto& [child_name, child_build] : build.children) {
    CallTreeNode child = finish(child_name, node.path + '/' + child_name,
                                std::move(child_build));
    child_wall += child.wall_ns;
    child_cpu += child.cpu_ns;
    node.children.push_back(std::move(child));
  }
  if (build.measured) {
    node.wall_ns = build.wall_ns;
    node.cpu_ns = build.cpu_ns;
  } else {
    // Synthesized ancestor: its cost is exactly its children's.
    node.wall_ns = child_wall;
    node.cpu_ns = child_cpu;
  }
  // Clamp: children attributed from pool workers overlap in wall time,
  // so their inclusive sum can legitimately exceed the parent's wall.
  node.excl_wall_ns =
      node.wall_ns > child_wall ? node.wall_ns - child_wall : 0;
  node.excl_cpu_ns = node.cpu_ns > child_cpu ? node.cpu_ns - child_cpu : 0;
  return node;
}

void flatten_into(const CallTreeNode& node, std::vector<PathProfile>& out) {
  out.push_back({node.path, node.count, node.wall_ns, node.cpu_ns,
                 node.excl_wall_ns, node.excl_cpu_ns});
  for (const CallTreeNode& child : node.children) flatten_into(child, out);
}

void render_into(const CallTreeNode& node, std::size_t depth,
                 std::string& out) {
  std::string label(depth * 2, ' ');
  label += node.name;
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "  %-36s %8llu %12.3f %12.3f %12.3f\n", label.c_str(),
                static_cast<unsigned long long>(node.count),
                static_cast<double>(node.wall_ns) / 1e6,
                static_cast<double>(node.excl_wall_ns) / 1e6,
                static_cast<double>(node.cpu_ns) / 1e6);
  out += buffer;
  for (const CallTreeNode& child : node.children)
    render_into(child, depth + 1, out);
}

[[noreturn]] void bad_tree(const std::string& what) {
  throw std::runtime_error("telemetry: call_tree: " + what);
}

/// One of an entry's five counts: a non-negative integer that fits.
std::uint64_t entry_count(const json::Value& entry, const std::string& path,
                          std::string_view key) {
  const json::Value* v = entry.get(key);
  if (v == nullptr)
    bad_tree("entry '" + path + "' misses field '" + std::string(key) + "'");
  // 2^64 as a double: the first value that no longer fits.
  if (v->kind != json::Value::Kind::kNumber || v->num < 0.0 ||
      v->num != std::floor(v->num) || v->num >= 18446744073709551616.0)
    bad_tree("entry '" + path + "' field '" + std::string(key) +
             "' is not a non-negative integer");
  return static_cast<std::uint64_t>(v->num);
}

}  // namespace

CallTree build_call_tree(const std::vector<SpanStats>& path_stats) {
  BuildNode root;
  for (const SpanStats& stats : path_stats) {
    VN2_CHECK(!stats.name.empty(),
              "call-tree path entries must be non-empty");
    const std::string& path = stats.name;
    BuildNode* node = &root;
    std::size_t begin = 0;
    while (begin <= path.size()) {
      std::size_t end = path.find('/', begin);
      if (end == std::string::npos) end = path.size();
      VN2_CHECK(end > begin,
                "call-tree paths must not contain empty segments");
      node = &node->children[path.substr(begin, end - begin)];
      begin = end + 1;
    }
    node->measured = true;
    node->count += stats.count;
    node->wall_ns += stats.total_ns;
    node->cpu_ns += stats.total_cpu_ns;
  }
  CallTree tree;
  for (auto& [name, build] : root.children)
    tree.roots.push_back(finish(name, name, std::move(build)));
  return tree;
}

std::vector<PathProfile> flatten(const CallTree& tree) {
  std::vector<PathProfile> out;
  for (const CallTreeNode& node : tree.roots) flatten_into(node, out);
  return out;
}

std::string render_call_tree(const CallTree& tree) {
  if (tree.empty()) return "  (no spans recorded)\n";
  char header[192];
  std::snprintf(header, sizeof(header), "  %-36s %8s %12s %12s %12s\n",
                "path", "count", "incl ms", "excl ms", "cpu ms");
  std::string out = header;
  for (const CallTreeNode& node : tree.roots) render_into(node, 0, out);
  return out;
}

std::vector<PathProfile> read_call_tree_json(std::string_view text) {
  const json::Value document = json::parse(text);
  const json::Value* section = document.get("call_tree");
  if (section == nullptr)
    bad_tree("no \"call_tree\" section in this snapshot");
  if (section->kind != json::Value::Kind::kObject)
    bad_tree("section is not an object");
  std::vector<PathProfile> out;
  for (const auto& [path, entry] : section->members) {
    if (entry.kind != json::Value::Kind::kObject)
      bad_tree("entry '" + path + "' is not an object");
    out.push_back({path, entry_count(entry, path, "count"),
                   entry_count(entry, path, "wall_ns"),
                   entry_count(entry, path, "cpu_ns"),
                   entry_count(entry, path, "excl_wall_ns"),
                   entry_count(entry, path, "excl_cpu_ns")});
  }
  return out;
}

}  // namespace vn2::telemetry
