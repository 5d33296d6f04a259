// The performance observatory: schema round-trips, order statistics,
// and the noise-aware regression gate (accept / reject / borderline),
// including the shrink-only baseline ratchet.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "benchstat/gate.hpp"
#include "benchstat/record.hpp"
#include "telemetry/sink.hpp"

namespace {

using vn2::benchstat::Baseline;
using vn2::benchstat::compare;
using vn2::benchstat::GateOptions;
using vn2::benchstat::GateReport;
using vn2::benchstat::make_metric;
using vn2::benchstat::ratchet_update;
using vn2::benchstat::Record;
using vn2::benchstat::SampleStats;
using vn2::benchstat::summarize;
using vn2::benchstat::Verdict;

Record make_run(const std::string& bench, std::vector<double> samples,
                bool gated = true, bool lower_is_better = true) {
  Record record;
  record.bench = bench;
  record.workload = "synthetic";
  record.provenance.git_sha = "deadbeef";
  record.provenance.reps = samples.size();
  record.cases.push_back(
      {"hot", {make_metric("seconds", "s", lower_is_better, gated,
                           std::move(samples))}});
  return record;
}

Baseline as_baseline(const Record& record) {
  Baseline baseline;
  baseline.records.push_back(record);
  return baseline;
}

const vn2::benchstat::Finding* find_finding(const GateReport& report,
                                            Verdict verdict) {
  for (const auto& finding : report.findings)
    if (finding.verdict == verdict) return &finding;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Order statistics.

TEST(SampleStats, SingleSampleCollapsesAllQuantiles) {
  const SampleStats stats = summarize({3.5});
  EXPECT_DOUBLE_EQ(stats.median, 3.5);
  EXPECT_DOUBLE_EQ(stats.min, 3.5);
  EXPECT_DOUBLE_EQ(stats.max, 3.5);
  EXPECT_DOUBLE_EQ(stats.q1, 3.5);
  EXPECT_DOUBLE_EQ(stats.q3, 3.5);
}

TEST(SampleStats, Type7QuantilesInterpolate) {
  // numpy.percentile([1,2,3,4], [25,50,75]) == [1.75, 2.5, 3.25].
  const SampleStats stats = summarize({4.0, 2.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
  EXPECT_DOUBLE_EQ(stats.q1, 1.75);
  EXPECT_DOUBLE_EQ(stats.q3, 3.25);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
}

TEST(SampleStats, OddCountMedianIsExact) {
  const SampleStats stats = summarize({9.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(stats.median, 5.0);
}

TEST(SampleStats, EmptyThrows) {
  EXPECT_THROW(static_cast<void>(summarize({})), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Schema round-trip.

TEST(RecordSchema, RoundTripPreservesEverything) {
  Record record = make_run("nmf_rank_sweep", {1.0, 1.1, 0.9});
  record.workload = "100x200, ranks 2..12";
  record.provenance.timestamp = "2026-08-08T12:00:00Z";
  record.provenance.bench_days = 0.25;
  record.environment.cpu_features = "avx2 fma";
  record.environment.hardware_concurrency = 16;
  record.environment.threads = 8;
  record.environment.telemetry_compiled = true;
  record.scale = {{"rows", 100.0}, {"cols", 200.0}};
  record.cases[0].metrics.push_back(
      make_metric("speedup", "x", false, false, {2.0, 2.2}));
  record.checks.push_back({"bit_identical", true});
  record.checks.push_back({"parity", false});
  record.resources.peak_rss_bytes = 123456789;
  record.resources.current_rss_bytes = 100000000;
  record.resources.cpu_user_ns = 5000000000;
  record.resources.cpu_system_ns = 250000000;
  record.resources.alloc_count = 42;
  record.resources.alloc_bytes = 1 << 20;
  record.telemetry_json = "{\"counters\": {\"x\": 1}}";

  vn2::telemetry::StringSink sink;
  vn2::benchstat::write_record(sink, record);
  const Record parsed = vn2::benchstat::read_record(sink.str());

  EXPECT_EQ(parsed.schema_version, vn2::benchstat::kSchemaVersion);
  EXPECT_EQ(parsed.bench, "nmf_rank_sweep");
  EXPECT_EQ(parsed.workload, "100x200, ranks 2..12");
  EXPECT_EQ(parsed.provenance.git_sha, "deadbeef");
  EXPECT_EQ(parsed.provenance.timestamp, "2026-08-08T12:00:00Z");
  EXPECT_DOUBLE_EQ(parsed.provenance.bench_days, 0.25);
  EXPECT_EQ(parsed.provenance.reps, 3u);
  EXPECT_EQ(parsed.environment.cpu_features, "avx2 fma");
  EXPECT_EQ(parsed.environment.hardware_concurrency, 16u);
  EXPECT_EQ(parsed.environment.threads, 8u);
  EXPECT_TRUE(parsed.environment.telemetry_compiled);
  ASSERT_EQ(parsed.scale.size(), 2u);
  EXPECT_EQ(parsed.scale[1].first, "cols");
  EXPECT_DOUBLE_EQ(parsed.scale[1].second, 200.0);
  ASSERT_EQ(parsed.cases.size(), 1u);
  ASSERT_EQ(parsed.cases[0].metrics.size(), 2u);
  const auto& seconds = parsed.cases[0].metrics[0];
  EXPECT_EQ(seconds.name, "seconds");
  EXPECT_TRUE(seconds.lower_is_better);
  EXPECT_TRUE(seconds.gated);
  ASSERT_EQ(seconds.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(seconds.samples[1], 1.1);
  EXPECT_DOUBLE_EQ(seconds.stats.median, 1.0);
  const auto& speedup = parsed.cases[0].metrics[1];
  EXPECT_EQ(speedup.unit, "x");
  EXPECT_FALSE(speedup.lower_is_better);
  EXPECT_FALSE(speedup.gated);
  ASSERT_EQ(parsed.checks.size(), 2u);
  EXPECT_TRUE(parsed.checks[0].pass);
  EXPECT_FALSE(parsed.checks[1].pass);
  EXPECT_EQ(parsed.resources.peak_rss_bytes, 123456789u);
  EXPECT_EQ(parsed.resources.alloc_count, 42u);
  EXPECT_EQ(parsed.resources.alloc_bytes, 1u << 20);
  EXPECT_NE(parsed.telemetry_json.find("\"counters\""), std::string::npos);
}

TEST(RecordSchema, PerCaseResourcesRoundTripAndStayOptional) {
  Record record = make_run("stream_bench", {1.0, 1.1, 0.9});
  record.cases.push_back({"unsampled", {}});
  vn2::benchstat::CaseResources& resources = record.cases[0].resources;
  resources.sampled = true;
  resources.peak_rss_bytes = 77000000;
  resources.interval_ms = 25;
  resources.rss_series = {{0, 50000000}, {25, 66000000}, {75, 77000000}};

  vn2::telemetry::StringSink sink;
  vn2::benchstat::write_record(sink, record);
  const Record parsed = vn2::benchstat::read_record(sink.str());

  ASSERT_EQ(parsed.cases.size(), 2u);
  const vn2::benchstat::CaseResources& got = parsed.cases[0].resources;
  EXPECT_TRUE(got.sampled);
  EXPECT_EQ(got.peak_rss_bytes, 77000000u);
  EXPECT_EQ(got.interval_ms, 25u);
  ASSERT_EQ(got.rss_series.size(), 3u);
  EXPECT_EQ(got.rss_series[1].offset_ms, 25u);
  EXPECT_EQ(got.rss_series[1].bytes, 66000000u);
  EXPECT_EQ(got.rss_series[2].offset_ms, 75u);
  // The case without a sampler window parses as "not sampled", matching
  // records written before per-case resources existed.
  EXPECT_FALSE(parsed.cases[1].resources.sampled);
  EXPECT_TRUE(parsed.cases[1].resources.rss_series.empty());
  // A pre-existing record without the field parses the same way.
  const Record legacy = vn2::benchstat::read_record(
      "{\"schema_version\": 1, \"bench\": \"old\", \"cases\": "
      "[{\"name\": \"only\", \"metrics\": []}]}");
  ASSERT_EQ(legacy.cases.size(), 1u);
  EXPECT_FALSE(legacy.cases[0].resources.sampled);
}

TEST(RecordSchema, BaselineRoundTripKeepsAllRecords) {
  Baseline baseline;
  baseline.records.push_back(make_run("alpha", {1.0, 1.1}));
  baseline.records.push_back(make_run("beta", {2.0, 2.1}, false));
  vn2::telemetry::StringSink sink;
  vn2::benchstat::write_baseline(sink, baseline);
  const Baseline parsed = vn2::benchstat::read_baseline(sink.str());
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_NE(parsed.find("alpha"), nullptr);
  ASSERT_NE(parsed.find("beta"), nullptr);
  EXPECT_FALSE(parsed.find("beta")->cases[0].metrics[0].gated);
  EXPECT_EQ(parsed.find("gamma"), nullptr);
}

TEST(RecordSchema, RejectsNewerSchemaVersion) {
  EXPECT_THROW(
      vn2::benchstat::read_record("{\"schema_version\": 99, \"bench\": \"x\"}"),
      std::runtime_error);
}

TEST(RecordSchema, MalformedInputThrowsWithPosition) {
  EXPECT_THROW(vn2::benchstat::read_record("{\"bench\": "),
               std::runtime_error);
  EXPECT_THROW(vn2::benchstat::read_record("not json at all"),
               std::runtime_error);
  EXPECT_THROW(vn2::benchstat::read_record("{\"bench\": \"x\"} trailing"),
               std::runtime_error);
  // A number must parse whole: "1.0.5" is an error, not 1.
  EXPECT_THROW(vn2::benchstat::read_record(
                   "{\"schema_version\": 1, \"bench\": \"hand\", \"cases\": "
                   "[{\"name\": \"hot\", \"metrics\": [{\"name\": "
                   "\"seconds\", \"median\": 1.0.5}]}]}"),
               std::runtime_error);
}

TEST(RecordSchema, BaselineEntryWithStatsOnlySurvives) {
  // A hand-maintained baseline entry may carry derived stats without the
  // raw samples; the reader must not destroy them.
  const char* text =
      "{\"schema_version\": 1, \"bench\": \"hand\", \"cases\": [{\"name\": "
      "\"hot\", \"metrics\": [{\"name\": \"seconds\", \"unit\": \"s\", "
      "\"lower_is_better\": true, \"gated\": true, \"median\": 2.0, "
      "\"min\": 1.9, \"max\": 2.2, \"q1\": 1.95, \"q3\": 2.1}]}]}";
  const Record parsed = vn2::benchstat::read_record(text);
  ASSERT_EQ(parsed.cases.size(), 1u);
  const auto& metric = parsed.cases[0].metrics[0];
  EXPECT_TRUE(metric.samples.empty());
  EXPECT_DOUBLE_EQ(metric.stats.median, 2.0);
  EXPECT_DOUBLE_EQ(metric.stats.q3, 2.1);
}

// ---------------------------------------------------------------------------
// The gate.

TEST(Gate, IdenticalRunPasses) {
  const Record record = make_run("bench", {1.0, 1.01, 1.02, 1.03});
  const GateReport report =
      compare(as_baseline(record), {record}, GateOptions{});
  EXPECT_FALSE(report.failed());
  EXPECT_EQ(report.compared, 1u);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(Gate, ClearRegressionFails) {
  // ~30% worse with disjoint IQRs: both gate conditions hold.
  const Record base = make_run("bench", {1.0, 1.01, 1.02, 1.03});
  const Record run = make_run("bench", {1.30, 1.31, 1.32, 1.33});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_TRUE(report.failed());
  EXPECT_EQ(report.regressions, 1u);
  const auto* finding = find_finding(report, Verdict::kRegressed);
  ASSERT_NE(finding, nullptr);
  EXPECT_TRUE(finding->gated);
  EXPECT_GT(finding->worse_delta, 0.25);
}

TEST(Gate, NoisyMedianMoveWithOverlappingIqrPasses) {
  // Median is ~23% worse (beyond the 15% floor) but the sample spreads
  // overlap heavily — indistinguishable from noise, so no regression.
  const Record base = make_run("bench", {1.0, 1.01, 1.02, 1.03});
  const Record run = make_run("bench", {0.70, 1.10, 1.40, 1.60});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_FALSE(report.failed());
  EXPECT_EQ(report.regressions, 0u);
}

TEST(Gate, WithinFloorMoveWithDisjointIqrPasses) {
  // Disjoint IQRs but only ~5% worse: below the relative floor.
  const Record base = make_run("bench", {1.00, 1.001, 1.002, 1.003});
  const Record run = make_run("bench", {1.05, 1.051, 1.052, 1.053});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_FALSE(report.failed());
}

TEST(Gate, UngatedRegressionIsInformationalOnly) {
  const Record base = make_run("bench", {1.0, 1.01, 1.02}, /*gated=*/false);
  const Record run = make_run("bench", {2.0, 2.01, 2.02}, /*gated=*/false);
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_FALSE(report.failed());
  EXPECT_EQ(report.regressions, 0u);
  // Still reported, so humans see it.
  EXPECT_NE(find_finding(report, Verdict::kRegressed), nullptr);
}

TEST(Gate, HigherIsBetterDirectionRespected) {
  // A speedup metric dropping from ~2x to ~1.2x is a regression.
  const Record base = make_run("bench", {2.0, 2.01, 2.02}, true,
                               /*lower_is_better=*/false);
  const Record run = make_run("bench", {1.20, 1.21, 1.22}, true,
                              /*lower_is_better=*/false);
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_TRUE(report.failed());
  EXPECT_EQ(report.regressions, 1u);
}

TEST(Gate, SignificantImprovementIsCounted) {
  const Record base = make_run("bench", {2.0, 2.01, 2.02});
  const Record run = make_run("bench", {1.0, 1.01, 1.02});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_FALSE(report.failed());
  EXPECT_EQ(report.improvements, 1u);
}

TEST(Gate, StaleBaselineMetricFails) {
  const Record base = make_run("bench", {1.0, 1.01});
  Record run = make_run("bench", {1.0, 1.01});
  run.cases[0].metrics[0].name = "renamed";
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_TRUE(report.failed());
  EXPECT_EQ(report.stale, 1u);
}

TEST(Gate, MissingBenchIsInformationalUnlessStrict) {
  const Record base = make_run("bench", {1.0, 1.01});
  const GateReport lenient = compare(as_baseline(base), {}, GateOptions{});
  EXPECT_FALSE(lenient.failed());
  EXPECT_NE(find_finding(lenient, Verdict::kMissing), nullptr);
  GateOptions strict;
  strict.strict = true;
  const GateReport gated = compare(as_baseline(base), {}, strict);
  EXPECT_TRUE(gated.failed());
}

TEST(Gate, FailedInvariantCheckFails) {
  const Record base = make_run("bench", {1.0, 1.01});
  Record run = make_run("bench", {1.0, 1.01});
  run.checks.push_back({"bit_identical", false});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  EXPECT_TRUE(report.failed());
  EXPECT_EQ(report.failed_checks, 1u);
}

TEST(Gate, RenderTextSummarizesVerdict) {
  const Record base = make_run("bench", {1.0, 1.01, 1.02, 1.03});
  const Record run = make_run("bench", {1.30, 1.31, 1.32, 1.33});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  const std::string text = vn2::benchstat::render_text(report);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  const std::string markdown = vn2::benchstat::render_markdown(report);
  EXPECT_NE(markdown.find("| bench |"), std::string::npos);
}

TEST(Gate, RenderTextSaysBetterForImprovement) {
  // Median 2.01 -> 1.01 on a lower-is-better metric: 49.8% better.
  const Record base = make_run("bench", {2.0, 2.01, 2.02});
  const Record run = make_run("bench", {1.0, 1.01, 1.02});
  const GateReport report = compare(as_baseline(base), {run}, GateOptions{});
  const std::string text = vn2::benchstat::render_text(report);
  EXPECT_NE(text.find("improved"), std::string::npos);
  EXPECT_NE(text.find("(49.8% better, gated)"), std::string::npos) << text;
  EXPECT_EQ(text.find("worse"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// The baseline ratchet.

TEST(Ratchet, AdoptsImprovementsAndNewBenches) {
  Baseline old_baseline = as_baseline(make_run("bench", {2.0, 2.01, 2.02}));
  const Record faster = make_run("bench", {1.0, 1.01, 1.02});
  const Record brand_new = make_run("fresh", {5.0, 5.1});
  const auto result =
      ratchet_update(old_baseline, {faster, brand_new}, GateOptions{});
  ASSERT_FALSE(result.refused);
  ASSERT_EQ(result.baseline.records.size(), 2u);
  const Record* updated = result.baseline.find("bench");
  ASSERT_NE(updated, nullptr);
  EXPECT_DOUBLE_EQ(updated->cases[0].metrics[0].stats.median, 1.01);
  EXPECT_NE(result.baseline.find("fresh"), nullptr);
}

TEST(Ratchet, WithinFloorSlowdownKeepsOldEntry) {
  Baseline old_baseline =
      as_baseline(make_run("bench", {1.00, 1.001, 1.002}));
  const Record slightly_slower = make_run("bench", {1.05, 1.051, 1.052});
  const auto result =
      ratchet_update(old_baseline, {slightly_slower}, GateOptions{});
  ASSERT_FALSE(result.refused);
  const Record* updated = result.baseline.find("bench");
  ASSERT_NE(updated, nullptr);
  // The old, better entry survives: the baseline only ratchets downward.
  EXPECT_DOUBLE_EQ(updated->cases[0].metrics[0].stats.median, 1.001);
  EXPECT_TRUE(updated->cases[0].metrics[0].gated);
}

TEST(Ratchet, RefusesGatedRegression) {
  Baseline old_baseline = as_baseline(make_run("bench", {1.0, 1.01, 1.02}));
  const Record regressed = make_run("bench", {1.5, 1.51, 1.52});
  const auto result =
      ratchet_update(old_baseline, {regressed}, GateOptions{});
  EXPECT_TRUE(result.refused);
  EXPECT_NE(result.reason.find("regression"), std::string::npos);
}

TEST(Ratchet, RefusesFailedCheck) {
  Baseline old_baseline = as_baseline(make_run("bench", {1.0, 1.01}));
  Record run = make_run("bench", {1.0, 1.01});
  run.checks.push_back({"parity", false});
  const auto result = ratchet_update(old_baseline, {run}, GateOptions{});
  EXPECT_TRUE(result.refused);
  EXPECT_NE(result.reason.find("parity"), std::string::npos);
}

TEST(Ratchet, PartialRunKeepsUntouchedBenchesSorted) {
  Baseline old_baseline;
  old_baseline.records.push_back(make_run("zeta", {1.0, 1.01}));
  old_baseline.records.push_back(make_run("alpha", {2.0, 2.01}));
  const Record run = make_run("zeta", {0.5, 0.51});
  const auto result = ratchet_update(old_baseline, {run}, GateOptions{});
  ASSERT_FALSE(result.refused);
  ASSERT_EQ(result.baseline.records.size(), 2u);
  EXPECT_EQ(result.baseline.records[0].bench, "alpha");
  EXPECT_EQ(result.baseline.records[1].bench, "zeta");
  EXPECT_DOUBLE_EQ(
      result.baseline.find("zeta")->cases[0].metrics[0].stats.median, 0.505);
}

}  // namespace
