// Tests for the vn2-lint static checker: every rule fires on its minimal
// violating fixture, suppression comments silence findings, and the
// near-miss fixture stays clean. Fixtures live in tests/lint_fixtures/
// (found via VN2_LINT_FIXTURE_DIR, set by tests/CMakeLists.txt); they are
// linted, never compiled.
//
// The v2 additions cover: bit-compatibility of the legacy rules with the
// v1 line-based engine (exact line/rule tuples), the four token/scope
// rules, and lint_main's 0/1/2 exit-code contract.
#include "vn2_lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace vn2::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(VN2_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

bool fires_on(const std::string& fixture_name,
              const std::string& virtual_path, const std::string& rule) {
  const auto findings = lint_content(virtual_path, fixture(fixture_name));
  return rules_fired(findings).count(rule) > 0;
}

TEST(Lint, NondeterminismRandomFires) {
  EXPECT_TRUE(fires_on("nondeterminism_random.cpp", "src/core/bad.cpp",
                       "nondeterminism-random"));
}

TEST(Lint, RandomIsAllowedInLinalgRandom) {
  EXPECT_FALSE(fires_on("nondeterminism_random.cpp", "src/linalg/random.cpp",
                        "nondeterminism-random"));
}

TEST(Lint, NondeterminismClockFires) {
  EXPECT_TRUE(fires_on("nondeterminism_clock.cpp", "src/core/bad.cpp",
                       "nondeterminism-clock"));
}

TEST(Lint, ClockIsAllowedInSimulator) {
  EXPECT_FALSE(fires_on("nondeterminism_clock.cpp", "src/wsn/simulator.cpp",
                        "nondeterminism-clock"));
}

TEST(Lint, ClockIsAllowedInTelemetry) {
  EXPECT_FALSE(fires_on("nondeterminism_clock.cpp",
                        "src/telemetry/telemetry.cpp",
                        "nondeterminism-clock"));
}

TEST(Lint, FloatInNumericFires) {
  EXPECT_TRUE(fires_on("float_in_numeric.cpp", "src/linalg/bad.cpp",
                       "float-in-numeric"));
  EXPECT_TRUE(fires_on("float_in_numeric.cpp", "src/nmf/bad.cpp",
                       "float-in-numeric"));
}

TEST(Lint, FloatIsAllowedOutsideNumericKernels) {
  EXPECT_FALSE(fires_on("float_in_numeric.cpp", "src/wsn/radio.cpp",
                        "float-in-numeric"));
}

TEST(Lint, IoInLibraryFires) {
  EXPECT_TRUE(
      fires_on("io_in_library.cpp", "src/core/bad.cpp", "io-in-library"));
}

TEST(Lint, IoIsAllowedInToolsAndTraceLayer) {
  EXPECT_FALSE(
      fires_on("io_in_library.cpp", "tools/some_cli.cpp", "io-in-library"));
  EXPECT_FALSE(
      fires_on("io_in_library.cpp", "src/trace/dump.cpp", "io-in-library"));
}

TEST(Lint, UsingNamespaceHeaderFires) {
  EXPECT_TRUE(fires_on("using_namespace_header.hpp", "src/core/bad.hpp",
                       "using-namespace-header"));
}

TEST(Lint, UsingNamespaceIsAllowedInSourceFiles) {
  EXPECT_FALSE(fires_on("using_namespace_header.hpp", "src/core/bad.cpp",
                        "using-namespace-header"));
}

TEST(Lint, NakedNewFires) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("naked_new.cpp"));
  std::size_t naked = 0;
  for (const Finding& f : findings)
    if (f.rule == "naked-new") ++naked;
  // new int(7), delete p, new int[4] — but NOT the two `= delete` lines.
  EXPECT_EQ(naked, 3u);
}

TEST(Lint, IncludeGuardFires) {
  EXPECT_TRUE(
      fires_on("missing_guard.hpp", "src/core/bad.hpp", "include-guard"));
}

TEST(Lint, PragmaOnceSatisfiesGuardRule) {
  EXPECT_FALSE(fires_on("using_namespace_header.hpp", "src/core/bad.hpp",
                        "include-guard"));
}

TEST(Lint, ParallelCaptureFires) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("parallel_capture.cpp"));
  std::vector<Finding> capture_findings;
  for (const Finding& f : findings)
    if (f.rule == "parallel-capture") capture_findings.push_back(f);
  // Exactly the write to `total`; the index-owned out[i] write is fine.
  ASSERT_EQ(capture_findings.size(), 1u);
  EXPECT_NE(capture_findings[0].message.find("'total'"), std::string::npos);
}

TEST(Lint, UnseededMt19937Fires) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("unseeded_mt19937.cpp"));
  std::size_t unseeded = 0;
  for (const Finding& f : findings)
    if (f.rule == "unseeded-mt19937") ++unseeded;
  // `bad;` and `worse{}` — but NOT the seeded engines or the `member_rng_`
  // member (trailing underscore: seeded in the constructor initializer).
  EXPECT_EQ(unseeded, 2u);
}

TEST(Lint, UnseededMt19937AllowedInRandomHome) {
  EXPECT_FALSE(fires_on("unseeded_mt19937.cpp", "src/linalg/random.cpp",
                        "unseeded-mt19937"));
}

TEST(Lint, ZeroSkipKernelFires) {
  const auto findings =
      lint_content("src/linalg/bad.cpp", fixture("zero_skip_kernel.cpp"));
  std::size_t skips = 0;
  for (const Finding& f : findings)
    if (f.rule == "zero-skip-kernel") ++skips;
  // The `== 0.0) continue` and `== 0) continue` skips — but NOT the
  // zero-count, the break, or the inequality guard.
  EXPECT_EQ(skips, 2u);
}

TEST(Lint, ZeroSkipAllowedOutsideNumericKernels) {
  EXPECT_FALSE(fires_on("zero_skip_kernel.cpp", "src/wsn/radio.cpp",
                        "zero-skip-kernel"));
}

TEST(Lint, ParallelInventoryFiresWhenArmed) {
  LintOptions options;
  options.threading_inventory = std::set<std::string>{"src/core/listed.cpp"};
  const auto findings = lint_content(
      "src/core/unlisted.cpp", fixture("parallel_inventory.cpp"), options);
  EXPECT_TRUE(rules_fired(findings).count("parallel-inventory"));
}

TEST(Lint, ParallelInventoryListedFileIsClean) {
  LintOptions options;
  options.threading_inventory = std::set<std::string>{"src/core/listed.cpp"};
  const auto findings = lint_content(
      "src/core/listed.cpp", fixture("parallel_inventory.cpp"), options);
  EXPECT_FALSE(rules_fired(findings).count("parallel-inventory"));
}

TEST(Lint, ParallelInventoryDisabledWithoutInventory) {
  EXPECT_FALSE(fires_on("parallel_inventory.cpp", "src/core/unlisted.cpp",
                        "parallel-inventory"));
}

TEST(Lint, ParallelLayerIsExemptFromInventory) {
  LintOptions options;
  options.threading_inventory = std::set<std::string>{};
  const auto findings = lint_content(
      "src/core/parallel.cpp", fixture("parallel_inventory.cpp"), options);
  EXPECT_FALSE(rules_fired(findings).count("parallel-inventory"));
}

TEST(Lint, ThreadingInventoryParsesFromDesignDoc) {
  const auto inventory = parse_threading_inventory(
      std::filesystem::path(VN2_LINT_REPO_ROOT) / "DESIGN.md");
  ASSERT_TRUE(inventory.has_value());
  EXPECT_TRUE(inventory->count("src/core/inference.cpp"));
  EXPECT_TRUE(inventory->count("src/linalg/matrix.cpp"));
}

TEST(Lint, SuppressionCommentsSilenceFindings) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("suppressed.cpp"));
  EXPECT_TRUE(findings.empty())
      << findings.front().rule << " at line " << findings.front().line;
}

TEST(Lint, SuppressionIsRuleSpecific) {
  // An allow() for a different rule must not silence the finding.
  const std::string content =
      "int f() {\n"
      "  return rand();  // vn2-lint: allow(io-in-library)\n"
      "}\n";
  const auto findings = lint_content("src/core/bad.cpp", content);
  EXPECT_TRUE(rules_fired(findings).count("nondeterminism-random"));
}

TEST(Lint, NearMissesStayClean) {
  const auto findings = lint_content("src/core/ok.cpp", fixture("clean.cpp"));
  EXPECT_TRUE(findings.empty())
      << findings.front().rule << " at line " << findings.front().line;
}

TEST(Lint, CommentsAndStringsAreNotCode) {
  const std::string content =
      "// rand() std::cout time(nullptr)\n"
      "/* std::random_device */\n"
      "const char* s = \"new int; delete p; std::cerr\";\n";
  EXPECT_TRUE(lint_content("src/core/ok.cpp", content).empty());
}

TEST(Lint, FindingsAreLineAnchoredAndSorted) {
  const std::string content =
      "int a() { return rand(); }\n"
      "int b() { return rand(); }\n";
  const auto findings = lint_content("src/core/bad.cpp", content);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(Lint, RuleCatalogueIsStable) {
  const auto ids = rule_ids();
  const std::set<std::string> expected = {
      "nondeterminism-random", "nondeterminism-clock",   "float-in-numeric",
      "io-in-library",         "using-namespace-header", "naked-new",
      "zero-skip-kernel",      "unseeded-mt19937",       "include-guard",
      "parallel-capture",      "parallel-inventory",
      "unchecked-public-entry", "lock-in-parallel-body",
      "alloc-in-kernel",        "throw-across-parallel"};
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()), expected);
}

// ---------------------------------------------------------------------------
// v1 bit-compatibility: the v2 token engine must report the exact same
// (line, rule) tuples on the legacy fixtures as the line-based v1 engine
// did. These tuples were recorded from the v1 binary; do not edit them to
// make a refactor pass.

using Anchors = std::vector<std::pair<std::size_t, std::string>>;

Anchors anchors_of(const std::string& fixture_name,
                   const std::string& virtual_path) {
  Anchors anchors;
  for (const Finding& f : lint_content(virtual_path, fixture(fixture_name)))
    anchors.emplace_back(f.line, f.rule);
  return anchors;
}

TEST(Lint, LegacyRulesAreBitCompatible) {
  EXPECT_EQ(anchors_of("io_in_library.cpp", "src/core/bad.cpp"),
            (Anchors{{7, "io-in-library"}, {8, "io-in-library"}}));
  EXPECT_EQ(anchors_of("naked_new.cpp", "src/core/bad.cpp"),
            (Anchors{{9, "naked-new"}, {10, "naked-new"}, {11, "naked-new"}}));
  EXPECT_EQ(anchors_of("nondeterminism_clock.cpp", "src/core/bad.cpp"),
            (Anchors{{6, "nondeterminism-clock"}, {8, "nondeterminism-clock"}}));
  EXPECT_EQ(
      anchors_of("nondeterminism_random.cpp", "src/core/bad.cpp"),
      (Anchors{{6, "nondeterminism-random"}, {7, "nondeterminism-random"}}));
  EXPECT_EQ(anchors_of("parallel_capture.cpp", "src/core/bad.cpp"),
            (Anchors{{15, "parallel-capture"}}));
  EXPECT_EQ(anchors_of("unseeded_mt19937.cpp", "src/core/bad.cpp"),
            (Anchors{{12, "unseeded-mt19937"}, {13, "unseeded-mt19937"}}));
  EXPECT_EQ(anchors_of("missing_guard.hpp", "src/core/bad.hpp"),
            (Anchors{{1, "include-guard"}}));
  EXPECT_EQ(anchors_of("using_namespace_header.hpp", "src/core/bad.hpp"),
            (Anchors{{7, "using-namespace-header"}}));
  EXPECT_EQ(anchors_of("float_in_numeric.cpp", "src/linalg/bad.cpp"),
            (Anchors{{3, "float-in-numeric"}}));
  EXPECT_EQ(anchors_of("zero_skip_kernel.cpp", "src/linalg/bad.cpp"),
            (Anchors{{6, "zero-skip-kernel"}, {13, "zero-skip-kernel"}}));
}

// ---------------------------------------------------------------------------
// v2 semantic rules.

TEST(Lint, UncheckedPublicEntryFires) {
  LintOptions options;
  options.public_api = std::set<std::string>{"lookup", "scaled"};
  const auto findings = lint_content(
      "src/core/bad.cpp", fixture("unchecked_public_entry.cpp"), options);
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "unchecked-public-entry") anchors.emplace_back(f.line, f.rule);
  EXPECT_EQ(anchors, (Anchors{{9, "unchecked-public-entry"},
                              {14, "unchecked-public-entry"}}));
}

TEST(Lint, UncheckedPublicEntryNegativesStayClean) {
  LintOptions options;
  options.public_api = std::set<std::string>{
      "checked", "guarded", "helper_checked", "total", "whole_value"};
  const auto findings = lint_content(
      "src/core/ok.cpp", fixture("unchecked_public_entry_ok.cpp"), options);
  EXPECT_FALSE(rules_fired(findings).count("unchecked-public-entry"));
}

TEST(Lint, UncheckedPublicEntryDisabledWithoutApiSet) {
  // No public_api in the options: the rule is off, like the inventory rule.
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("unchecked_public_entry.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("unchecked-public-entry"));
}

TEST(Lint, UncheckedPublicEntryIgnoresNonApiFunctions) {
  LintOptions options;
  options.public_api = std::set<std::string>{"something_else"};
  const auto findings = lint_content(
      "src/core/bad.cpp", fixture("unchecked_public_entry.cpp"), options);
  EXPECT_FALSE(rules_fired(findings).count("unchecked-public-entry"));
}

TEST(Lint, TelemetryEntryPointsFireWhenUnchecked) {
  // Fixture modeled on the profiling surface (sampler series access,
  // profile-diff ratio math): risky parameter uses with no contract.
  LintOptions options;
  options.public_api = std::set<std::string>{"sample_window", "diff_ratio"};
  const auto findings = lint_content(
      "src/telemetry/bad.cpp", fixture("telemetry_entry.cpp"), options);
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "unchecked-public-entry") anchors.emplace_back(f.line, f.rule);
  EXPECT_EQ(anchors, (Anchors{{10, "unchecked-public-entry"},
                              {14, "unchecked-public-entry"}}));
}

TEST(Lint, TelemetryEntryContractsStayClean) {
  // The contract-carrying twin mirrors how the real telemetry entry
  // points validate (VN2_CHECK, if-throw, whole-value member reads).
  LintOptions options;
  options.public_api = std::set<std::string>{
      "sample_window", "diff_ratio", "merge_counters"};
  const auto findings = lint_content(
      "src/telemetry/ok.cpp", fixture("telemetry_entry_ok.cpp"), options);
  EXPECT_FALSE(rules_fired(findings).count("unchecked-public-entry"));
}

TEST(Lint, LockInParallelBodyFires) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("lock_in_parallel.cpp"));
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "lock-in-parallel-body") anchors.emplace_back(f.line, f.rule);
  EXPECT_EQ(anchors, (Anchors{{10, "lock-in-parallel-body"}}));
}

TEST(Lint, LockBeforeParallelRegionIsClean) {
  const auto findings =
      lint_content("src/core/ok.cpp", fixture("lock_in_parallel_ok.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("lock-in-parallel-body"));
}

TEST(Lint, ParallelLayerIsExemptFromLockRule) {
  // core/parallel.* implements the pool; it owns the one sanctioned mutex.
  const auto findings =
      lint_content("src/core/parallel.cpp", fixture("lock_in_parallel.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("lock-in-parallel-body"));
}

TEST(Lint, AllocInKernelFires) {
  const auto findings =
      lint_content("src/linalg/kernels.cpp", fixture("alloc_in_kernel.cpp"));
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "alloc-in-kernel") anchors.emplace_back(f.line, f.rule);
  // vector decl, push_back growth, Matrix temporary — one each.
  EXPECT_EQ(anchors,
            (Anchors{{10, "alloc-in-kernel"},
                     {11, "alloc-in-kernel"},
                     {12, "alloc-in-kernel"}}));
}

TEST(Lint, AllocOutsideKernelLoopIsClean) {
  const auto findings = lint_content("src/linalg/kernels.cpp",
                                     fixture("alloc_in_kernel_ok.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("alloc-in-kernel"));
}

TEST(Lint, AllocRuleOnlyAppliesToKernelsTu) {
  const auto findings =
      lint_content("src/core/other.cpp", fixture("alloc_in_kernel.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("alloc-in-kernel"));
}

TEST(Lint, AllocRuleCoversSimdKernelsTu) {
  // The simd backend TU is held to the same allocation-free standard as
  // the scalar kernel TU.
  const auto findings = lint_content("src/linalg/kernels_simd.cpp",
                                     fixture("alloc_in_kernel.cpp"));
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "alloc-in-kernel") anchors.emplace_back(f.line, f.rule);
  EXPECT_EQ(anchors,
            (Anchors{{10, "alloc-in-kernel"},
                     {11, "alloc-in-kernel"},
                     {12, "alloc-in-kernel"}}));
}

TEST(Lint, ThrowAcrossParallelFires) {
  const auto findings =
      lint_content("src/core/bad.cpp", fixture("throw_across_parallel.cpp"));
  Anchors anchors;
  for (const Finding& f : findings)
    if (f.rule == "throw-across-parallel") anchors.emplace_back(f.line, f.rule);
  EXPECT_EQ(anchors, (Anchors{{10, "throw-across-parallel"}}));
}

TEST(Lint, ThrowBeforeParallelRegionIsClean) {
  const auto findings =
      lint_content("src/core/ok.cpp", fixture("throw_across_parallel_ok.cpp"));
  EXPECT_FALSE(rules_fired(findings).count("throw-across-parallel"));
}

TEST(Lint, NewRulesHonorSuppressionComments) {
  const std::string content =
      "void f(std::vector<double>& out) {\n"
      "  parallel_for(0, out.size(), 1, [&out](std::size_t i) {\n"
      "    throw 1;  // vn2-lint: allow(throw-across-parallel)\n"
      "    out[i] = 0.0;\n"
      "  });\n"
      "}\n";
  const auto findings = lint_content("src/core/bad.cpp", content);
  EXPECT_FALSE(rules_fired(findings).count("throw-across-parallel"));
}

TEST(Lint, PublicApiCollectionFindsHeaderDeclarations) {
  const auto api =
      collect_public_api(std::filesystem::path(VN2_LINT_REPO_ROOT));
  EXPECT_TRUE(api.count("parallel_for"));
  EXPECT_TRUE(api.count("encode"));
}

// ---------------------------------------------------------------------------
// lint_main exit codes: 0 clean, 1 findings, 2 usage/IO.

int run_lint_main(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"vn2_lint"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return lint_main(static_cast<int>(argv.size()), argv.data());
}

class LintMainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("vn2_lint_exit_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) /* stable per run */ +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::create_directories(root_ / "src" / "core");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  void write(const std::filesystem::path& relative,
             const std::string& content) {
    const auto path = root_ / relative;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  std::filesystem::path root_;
};

TEST_F(LintMainTest, CleanTreeExitsZero) {
  write("src/core/ok.cpp", "int answer() { return 42; }\n");
  EXPECT_EQ(run_lint_main({"--root", root_.string()}), 0);
}

TEST_F(LintMainTest, FindingsExitOne) {
  write("src/core/bad.cpp", "int f() { return rand(); }\n");
  EXPECT_EQ(run_lint_main({"--root", root_.string()}), 1);
}

TEST_F(LintMainTest, UnknownOptionExitsTwo) {
  EXPECT_EQ(run_lint_main({"--bogus"}), 2);
}

TEST_F(LintMainTest, MissingRootExitsTwo) {
  EXPECT_EQ(run_lint_main(
                {"--root", (root_ / "does_not_exist").string()}),
            2);
}

TEST_F(LintMainTest, ToolsDirectoryIsLinted) {
  // The linter lints its own home: tools/ is part of the default walk, so
  // vn2_lint.cpp and tools/lint/ hold themselves to the same rules.
  write("tools/helper.cpp", "int* leak() { return new int(7); }\n");
  EXPECT_EQ(run_lint_main({"--root", root_.string()}), 1);
}

TEST(Lint, RepoTreeIsClean) {
  // The gate CI enforces: the real tree lints clean. VN2_LINT_REPO_ROOT is
  // the source dir at configure time.
  const auto findings =
      lint_tree(std::filesystem::path(VN2_LINT_REPO_ROOT));
  for (const Finding& f : findings)
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
}

}  // namespace
}  // namespace vn2::lint
