// Tests for profile diffing: path alignment, noise floors (relative and
// absolute), new/vanished paths staying informational, both renderers,
// and an end-to-end fixture pair flowing through write_json ->
// read_call_tree_json -> diff_call_trees with a known injected slowdown.
#include "telemetry/profdiff.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/calltree.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::telemetry {
namespace {

PathProfile make_path(std::string path, std::uint64_t wall_ns,
                      std::uint64_t excl_ns, std::uint64_t count = 1) {
  PathProfile p;
  p.path = std::move(path);
  p.count = count;
  p.wall_ns = wall_ns;
  p.cpu_ns = wall_ns;
  p.excl_wall_ns = excl_ns;
  p.excl_cpu_ns = excl_ns;
  return p;
}

TEST(ProfDiffTest, SelfDiffIsAlwaysClean) {
  std::vector<PathProfile> profile = {
      make_path("train", 50000000, 10000000),
      make_path("train/nmf", 40000000, 40000000, 8),
  };
  const ProfDiffReport report = diff_call_trees(profile, profile, {});
  EXPECT_EQ(report.compared, 2u);
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.improvements, 0u);
  EXPECT_FALSE(report.failed());
  const std::string text = render_text(report);
  EXPECT_NE(text.find("verdict: ok"), std::string::npos);
}

TEST(ProfDiffTest, InjectedSlowdownRegressesThatPathOnly) {
  const std::vector<PathProfile> base = {
      make_path("train", 50000000, 10000000),
      make_path("train/nmf", 40000000, 40000000),
  };
  const std::vector<PathProfile> run = {
      make_path("train", 51000000, 11000000),   // +2%: under the floor.
      make_path("train/nmf", 80000000, 80000000),  // 2x: regression.
  };
  const ProfDiffReport report = diff_call_trees(base, run, {});
  EXPECT_EQ(report.regressions, 1u);
  EXPECT_TRUE(report.failed());
  const std::string text = render_text(report);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("train/nmf"), std::string::npos);
  EXPECT_NE(text.find("verdict: FAIL"), std::string::npos);
}

TEST(ProfDiffTest, ImprovementIsReportedButDoesNotFail) {
  const std::vector<PathProfile> base = {make_path("a", 80000000, 80000000)};
  const std::vector<PathProfile> run = {make_path("a", 40000000, 40000000)};
  const ProfDiffReport report = diff_call_trees(base, run, {});
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.improvements, 1u);
  EXPECT_FALSE(report.failed());
}

TEST(ProfDiffTest, AbsoluteFloorSuppressesTinyMoves) {
  // 3x relative move, but only 600 us absolute — under the 1 ms default.
  const std::vector<PathProfile> base = {make_path("a", 300000, 300000)};
  const std::vector<PathProfile> run = {make_path("a", 900000, 900000)};
  const ProfDiffReport report = diff_call_trees(base, run, {});
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_FALSE(report.failed());
  // Lowering the floor makes the same move count.
  ProfDiffOptions tight;
  tight.min_delta_ns = 100000;
  EXPECT_TRUE(diff_call_trees(base, run, tight).failed());
}

TEST(ProfDiffTest, RelativeFloorSuppressesSmallRatios) {
  // 10 ms absolute move but only +10%: inside the default 15% band.
  const std::vector<PathProfile> base = {
      make_path("a", 100000000, 100000000)};
  const std::vector<PathProfile> run = {
      make_path("a", 110000000, 110000000)};
  EXPECT_FALSE(diff_call_trees(base, run, {}).failed());
  ProfDiffOptions tight;
  tight.relative_floor = 0.05;
  EXPECT_TRUE(diff_call_trees(base, run, tight).failed());
}

TEST(ProfDiffTest, NewAndVanishedPathsAreInformational) {
  const std::vector<PathProfile> base = {
      make_path("a", 50000000, 50000000),
      make_path("gone", 50000000, 50000000)};
  const std::vector<PathProfile> run = {
      make_path("a", 50000000, 50000000),
      make_path("fresh", 50000000, 50000000)};
  const ProfDiffReport report = diff_call_trees(base, run, {});
  EXPECT_EQ(report.added, 1u);
  EXPECT_EQ(report.vanished, 1u);
  EXPECT_FALSE(report.failed());
  const std::string text = render_text(report);
  EXPECT_NE(text.find("fresh"), std::string::npos);
  EXPECT_NE(text.find("gone"), std::string::npos);
}

TEST(ProfDiffTest, MarkdownRendersTableAndVerdict) {
  const std::vector<PathProfile> base = {make_path("a", 50000000, 50000000)};
  const std::vector<PathProfile> run = {make_path("a", 150000000, 150000000)};
  const ProfDiffReport report = diff_call_trees(base, run, {});
  const std::string md = render_markdown(report);
  EXPECT_NE(md.find("| path |"), std::string::npos);
  EXPECT_NE(md.find("`a`"), std::string::npos);
  EXPECT_NE(md.find("**FAIL**"), std::string::npos);
  const ProfDiffReport clean = diff_call_trees(base, base, {});
  EXPECT_NE(render_markdown(clean).find("**ok**"), std::string::npos);
}

TEST(ProfDiffTest, NegativeFloorThrows) {
  ProfDiffOptions bad;
  bad.relative_floor = -0.1;
  EXPECT_THROW(diff_call_trees({}, {}, bad), std::invalid_argument);
}

TEST(ProfDiffTest, FixturePairFlowsThroughSnapshotJson) {
  // Two hand-built snapshots with one injected slowdown, serialized with
  // the real writer and re-read with the real reader — the same route
  // `vn2 profile --diff` takes.
  const auto snapshot_json = [](std::uint64_t nmf_ns) {
    Snapshot snapshot;
    snapshot.path_stats.push_back(
        {"pipeline", 1, 90000000, 90000000, 90000000, 90000000});
    snapshot.path_stats.push_back(
        {"pipeline/train", 1, 60000000, 60000000, 60000000, 60000000});
    snapshot.path_stats.push_back(
        {"pipeline/train/nmf", 6, nmf_ns, 1000000, nmf_ns, nmf_ns});
    StringSink sink;
    write_json(sink, snapshot);
    return sink.str();
  };
  const auto base = read_call_tree_json(snapshot_json(40000000));
  const auto run = read_call_tree_json(snapshot_json(55000000));
  // Self-diff of the parsed base: clean.
  EXPECT_FALSE(diff_call_trees(base, base, {}).failed());
  // Base vs run: nmf went 40 -> 55 ms (+37%), past both floors.
  const ProfDiffReport report = diff_call_trees(base, run, {});
  EXPECT_TRUE(report.failed());
  EXPECT_EQ(report.regressions, 1u);
  const std::string text = render_text(report);
  EXPECT_NE(text.find("pipeline/train/nmf"), std::string::npos);
}

}  // namespace
}  // namespace vn2::telemetry
