// Tests for span path tracking and call-tree aggregation: nesting builds
// "/"-joined paths, threads keep independent path stacks, parallel_for
// workers inherit the submitting thread's path, and build_call_tree /
// flatten / read_call_tree_json agree on inclusive and exclusive times.
#include "telemetry/calltree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::telemetry {
namespace {

class CallTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_collecting(true);
  }
  void TearDown() override {
    core::set_num_threads(0);
    Registry::global().reset();
    set_collecting(true);
  }
};

/// path_stats row for `path`, or nullptr.
const SpanStats* find_path(const Snapshot& snapshot,
                           const std::string& path) {
  for (const SpanStats& s : snapshot.path_stats)
    if (s.name == path) return &s;
  return nullptr;
}

TEST_F(CallTreeTest, NestedSpansRecordSlashJoinedPaths) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  const Snapshot snapshot = Registry::global().snapshot();
  const SpanStats* outer = find_path(snapshot, "outer");
  const SpanStats* inner = find_path(snapshot, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(find_path(snapshot, "inner"), nullptr);
}

TEST_F(CallTreeTest, ThreadsKeepIndependentPathStacks) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  {
    ScopedSpan outer("outer");
    // A plain std::thread has no span context and no inherited prefix, so
    // its spans are roots — only parallel_for propagates ancestry.
    std::thread worker([] { ScopedSpan span("detached"); });
    worker.join();
  }
  const Snapshot snapshot = Registry::global().snapshot();
  EXPECT_NE(find_path(snapshot, "detached"), nullptr);
  EXPECT_EQ(find_path(snapshot, "outer/detached"), nullptr);
}

TEST_F(CallTreeTest, ParallelForWorkersInheritSubmitterPath) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  core::set_num_threads(4);
  {
    ScopedSpan outer("outer");
    core::parallel_for(0, 64, 1, [](std::size_t) {
      ScopedSpan unit("unit");
    });
  }
  const Snapshot snapshot = Registry::global().snapshot();
  const SpanStats* nested = find_path(snapshot, "outer/unit");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->count, 64u);
  // No worker span escaped to the root: every "unit" is under "outer".
  EXPECT_EQ(find_path(snapshot, "unit"), nullptr);
}

TEST_F(CallTreeTest, BuildComputesInclusiveAndClampedExclusive) {
  std::vector<SpanStats> stats;
  stats.push_back({"a", 1, 100, 100, 100, 40});
  stats.push_back({"a/b", 2, 30, 10, 20, 30});
  stats.push_back({"a/b/c", 4, 10, 1, 5, 10});
  stats.push_back({"d/e", 1, 50, 50, 50, 0});
  const CallTree tree = build_call_tree(stats);
  ASSERT_EQ(tree.roots.size(), 2u);  // "a" then "d", by name.
  const CallTreeNode& a = tree.roots[0];
  EXPECT_EQ(a.path, "a");
  EXPECT_EQ(a.wall_ns, 100u);
  EXPECT_EQ(a.excl_wall_ns, 70u);  // 100 - 30.
  ASSERT_EQ(a.children.size(), 1u);
  EXPECT_EQ(a.children[0].excl_wall_ns, 20u);  // 30 - 10.
  EXPECT_EQ(a.children[0].children[0].excl_wall_ns, 10u);  // Leaf.
  // "d" was never measured: synthesized with count 0, inclusive = child.
  const CallTreeNode& d = tree.roots[1];
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.wall_ns, 50u);
  EXPECT_EQ(d.excl_wall_ns, 0u);
}

TEST_F(CallTreeTest, ExclusiveClampsWhenParallelChildrenOverlap) {
  // Workers overlap in wall time, so children can sum past the parent.
  std::vector<SpanStats> stats;
  stats.push_back({"p", 1, 100, 100, 100, 100});
  stats.push_back({"p/w", 8, 400, 40, 60, 400});
  const CallTree tree = build_call_tree(stats);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.roots[0].excl_wall_ns, 0u);
  EXPECT_EQ(tree.roots[0].wall_ns, 100u);
}

TEST_F(CallTreeTest, FlattenIsPreorderWithSiblingsByName) {
  std::vector<SpanStats> stats;
  stats.push_back({"z", 1, 10, 10, 10, 0});
  stats.push_back({"a", 1, 10, 10, 10, 0});
  stats.push_back({"a/c", 1, 2, 2, 2, 0});
  stats.push_back({"a/b", 1, 3, 3, 3, 0});
  const std::vector<PathProfile> flat = flatten(build_call_tree(stats));
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0].path, "a");
  EXPECT_EQ(flat[1].path, "a/b");
  EXPECT_EQ(flat[2].path, "a/c");
  EXPECT_EQ(flat[3].path, "z");
}

TEST_F(CallTreeTest, BuildRejectsMalformedPaths) {
  EXPECT_THROW(build_call_tree({SpanStats{"", 1, 1, 1, 1, 0}}),
               std::invalid_argument);
  EXPECT_THROW(build_call_tree({SpanStats{"a//b", 1, 1, 1, 1, 0}}),
               std::invalid_argument);
  EXPECT_THROW(build_call_tree({SpanStats{"a/", 1, 1, 1, 1, 0}}),
               std::invalid_argument);
}

TEST_F(CallTreeTest, SnapshotJsonRoundTripsThroughReader) {
  Snapshot snapshot;  // Hand-built: works identically with telemetry off.
  snapshot.path_stats.push_back({"train", 1, 5000000, 5000000, 5000000, 4000000});
  snapshot.path_stats.push_back({"train/nmf", 3, 3000000, 500000, 2000000, 3000000});
  StringSink sink;
  write_json(sink, snapshot);
  const std::vector<PathProfile> parsed = read_call_tree_json(sink.str());
  const std::vector<PathProfile> expected =
      flatten(build_call_tree(snapshot.path_stats));
  ASSERT_EQ(parsed.size(), expected.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].path, expected[i].path);
    EXPECT_EQ(parsed[i].count, expected[i].count);
    EXPECT_EQ(parsed[i].wall_ns, expected[i].wall_ns);
    EXPECT_EQ(parsed[i].cpu_ns, expected[i].cpu_ns);
    EXPECT_EQ(parsed[i].excl_wall_ns, expected[i].excl_wall_ns);
    EXPECT_EQ(parsed[i].excl_cpu_ns, expected[i].excl_cpu_ns);
  }
}

TEST_F(CallTreeTest, ReaderRejectsDocumentsWithoutCallTree) {
  EXPECT_THROW(read_call_tree_json("{\"spans\": {}}"), std::runtime_error);
  EXPECT_THROW(read_call_tree_json(""), std::runtime_error);
}

/// A one-entry snapshot whose wall_ns field holds `wall` verbatim.
std::string snapshot_with_wall(const std::string& wall) {
  return "{\"call_tree\": {\"train\": {\"count\": 1, \"wall_ns\": " + wall +
         ", \"cpu_ns\": 2, \"excl_wall_ns\": 3, \"excl_cpu_ns\": 4}}}";
}

TEST_F(CallTreeTest, ReaderRejectsMalformedSnapshots) {
  const std::string good = snapshot_with_wall("5");
  ASSERT_EQ(read_call_tree_json(good).size(), 1u);
  for (const std::string& bad :
       {snapshot_with_wall("5.5"), snapshot_with_wall("9abc"),
        snapshot_with_wall("-1"), snapshot_with_wall("\"5\""), good + " x",
        good.substr(0, good.size() - 1),
        std::string("{\"call_tree\": {\"train\": {\"count\": 1}}}")})
    EXPECT_THROW((void)read_call_tree_json(bad), std::runtime_error) << bad;
}

TEST_F(CallTreeTest, ReaderReadsCountsInExponentForm) {
  const std::vector<PathProfile> parsed =
      read_call_tree_json(snapshot_with_wall("5.9e9"));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].path, "train");
  EXPECT_EQ(parsed[0].count, 1u);
  EXPECT_EQ(parsed[0].wall_ns, 5900000000u);
  EXPECT_EQ(parsed[0].cpu_ns, 2u);
  EXPECT_EQ(parsed[0].excl_wall_ns, 3u);
  EXPECT_EQ(parsed[0].excl_cpu_ns, 4u);
}

TEST_F(CallTreeTest, RenderShowsIndentedPathsAndHandlesEmpty) {
  std::vector<SpanStats> stats;
  stats.push_back({"a", 1, 2000000, 2000000, 2000000, 1000000});
  stats.push_back({"a/b", 1, 1000000, 1000000, 1000000, 1000000});
  const std::string text = render_call_tree(build_call_tree(stats));
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
  EXPECT_NE(text.find("incl ms"), std::string::npos);
  EXPECT_NE(render_call_tree(CallTree{}).find("no spans"),
            std::string::npos);
}

}  // namespace
}  // namespace vn2::telemetry
