// vn2-lint — VN2's project-specific static checker (v2 engine).
//
// A dependency-free (std-only) analysis tool that enforces the
// invariants the compiler cannot: determinism of the analysis pipeline,
// double-only numeric kernels, IO discipline, parallel_for capture and
// synchronization hygiene, contract-checked public entry points, and
// header hygiene. The v2 engine lexes each file into a real token
// stream with a brace/scope tracker (tools/lint/), so rules can reason
// about function boundaries, lambda bodies, and loop nests — not just
// lines. See DESIGN.md "Correctness & static analysis" for the rule
// catalogue and rationale.
//
// Findings are suppressible per line with
//
//   some_call();  // vn2-lint: allow(<rule>[, <rule>...])
//
// or with the same comment alone on the line above. There is no baseline
// of grandfathered findings: every unsuppressed finding fails the run.
// Exit codes: 0 clean, 1 findings, 2 usage or IO error.
#pragma once

#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace vn2::lint {

/// One rule violation, anchored to a file and 1-based line.
struct Finding {
  std::string file;     ///< Path as reported (repo-relative when walking).
  std::size_t line = 0; ///< 1-based line number.
  std::string rule;     ///< Rule identifier, e.g. "nondeterminism-random".
  std::string message;  ///< Human-readable explanation.

  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
};

/// Cross-file context some rules need. Rules whose context is absent
/// (nullopt) are disabled, so single-file linting stays meaningful.
struct LintOptions {
  /// Repo-relative paths sanctioned to call parallel_for, parsed from the
  /// threading inventory in DESIGN.md. nullopt disables the
  /// parallel-inventory rule.
  std::optional<std::set<std::string>> threading_inventory;

  /// Names of non-inline functions declared in public headers
  /// (src/*/*.hpp), collected by `collect_public_api`. nullopt disables
  /// the unchecked-public-entry rule.
  std::optional<std::set<std::string>> public_api;
};

/// Identifiers of every rule, in reporting order.
[[nodiscard]] std::vector<std::string> rule_ids();

/// Parses the "### Threading inventory" section of DESIGN.md: every
/// backtick-quoted path until the next heading. nullopt when the file or
/// the section is missing.
[[nodiscard]] std::optional<std::set<std::string>> parse_threading_inventory(
    const std::filesystem::path& design_md);

/// Walks `root`/src/**/*.hpp|h and collects the names of every
/// non-inline function the headers declare — the public-entry set the
/// unchecked-public-entry rule checks definitions against.
[[nodiscard]] std::set<std::string> collect_public_api(
    const std::filesystem::path& root);

/// Lints one file's contents. `path` (repo-relative, forward slashes) is
/// used both for reporting and for rule scoping — e.g. the float ban only
/// applies under src/linalg and src/nmf.
[[nodiscard]] std::vector<Finding> lint_content(const std::string& path,
                                                const std::string& content,
                                                const LintOptions& options);
[[nodiscard]] std::vector<Finding> lint_content(const std::string& path,
                                                const std::string& content);

/// Reads and lints one file on disk, reporting it as `relative`.
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& file,
                                             const std::string& relative,
                                             const LintOptions& options = {});

/// Walks `dirs` (default: src, tools, bench, examples) under `root` and
/// lints every C++ source/header found. Reads `root`/DESIGN.md to arm the
/// parallel-inventory rule and `root`/src headers to arm
/// unchecked-public-entry.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::filesystem::path& root,
    const std::vector<std::string>& dirs = {});

/// The CLI entry point (argv semantics of the vn2_lint binary), exposed
/// so tests can assert exit-code behaviour: 0 clean, 1 findings, 2
/// usage/IO error.
[[nodiscard]] int lint_main(int argc, const char* const* argv);

}  // namespace vn2::lint
