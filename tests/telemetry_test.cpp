// Tests for the telemetry subsystem: registry thread-safety, span nesting,
// both sink formats parsing back whole, the runtime and compile-time switches,
// and an end-to-end pipeline run leaving nonzero counters in every
// instrumented family. All tests share the process-global registry, so
// each starts with reset().
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "linalg/nnls.hpp"
#include "linalg/random.hpp"
#include "nmf/nmf.hpp"
#include "scenario/scenario.hpp"
#include "support/synthetic.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/sink.hpp"
#include "trace/trace.hpp"

namespace vn2::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_collecting(true);
  }
  void TearDown() override {
    Registry::global().set_span_capacity(65536);
    Registry::global().reset();
    set_collecting(true);
  }
};

TEST_F(TelemetryTest, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100000;
  Counter& counter = Registry::global().counter("test.concurrent");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(TelemetryTest, MetricReferencesSurviveReset) {
  Counter& counter = Registry::global().counter("test.identity");
  counter.add(5);
  Registry::global().reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(2);
  EXPECT_EQ(&counter, &Registry::global().counter("test.identity"));
  EXPECT_EQ(Registry::global().snapshot().counter("test.identity"), 2u);
}

TEST_F(TelemetryTest, HistogramBucketsByBitWidth) {
  Histogram& h = Registry::global().histogram("test.hist");
  for (std::uint64_t sample : {0u, 1u, 2u, 3u, 4u, 7u, 8u}) h.record(sample);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(3), 2u);  // 4, 7
  EXPECT_EQ(h.bucket(4), 1u);  // 8
}

TEST_F(TelemetryTest, SpanNestingTracksDepth) {
  {
    ScopedSpan outer("test.outer");
    ScopedSpan inner("test.inner");
  }
  const Snapshot snapshot = Registry::global().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == "test.outer") outer = &span;
    if (span.name == "test.inner") inner = &span;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->thread, inner->thread);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->duration_ns, outer->duration_ns);
}

TEST_F(TelemetryTest, SpanCapacityDropsAreCounted) {
  Registry::global().set_span_capacity(4);
  for (int i = 0; i < 6; ++i) ScopedSpan span("test.capped");
  const Snapshot snapshot = Registry::global().snapshot();
  EXPECT_EQ(snapshot.spans.size(), 4u);
  EXPECT_EQ(snapshot.spans_dropped, 2u);
  // Aggregated stats still see every occurrence.
  ASSERT_EQ(snapshot.span_stats.size(), 1u);
  EXPECT_EQ(snapshot.span_stats[0].count, 6u);
}

TEST_F(TelemetryTest, SnapshotJsonParsesWhole) {
  Registry::global().counter("test.count").add(42);
  Registry::global().gauge("test.gauge").set(2.5);
  Registry::global().gauge("test.nan").set(std::nan(""));
  Histogram& h = Registry::global().histogram("test.hist");
  h.record(3);
  h.record(900);
  { ScopedSpan span("test.span"); }
  const Snapshot snapshot = Registry::global().snapshot();

  StringSink sink;
  write_json(sink, snapshot);
  const json::Value doc = json::parse(sink.str());

  EXPECT_EQ(doc.get("telemetry_compiled")->boolean, snapshot.compiled_in);
  const json::Value* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members.size(), snapshot.counters.size());
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    EXPECT_EQ(counters->members[i].first, snapshot.counters[i].first);
    EXPECT_EQ(counters->members[i].second.num,
              static_cast<double>(snapshot.counters[i].second));
  }
  const json::Value* gauges = doc.get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get("test.gauge")->num, 2.5);
  // JSON has no NaN: the writer emits null, and the document still parses.
  EXPECT_EQ(gauges->get("test.nan")->kind, json::Value::Kind::kNull);
  const json::Value* hist = doc.get("histograms")->get("test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("count")->num, 2.0);
  EXPECT_EQ(hist->get("sum")->num, 903.0);
  EXPECT_EQ(hist->get("min")->num, 3.0);
  EXPECT_EQ(hist->get("max")->num, 900.0);
  EXPECT_EQ(hist->get("mean")->num, 451.5);
  ASSERT_EQ(snapshot.span_stats.size(), 1u);
  const json::Value* span = doc.get("spans")->get("test.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->get("count")->num, 1.0);
  EXPECT_EQ(span->get("total_ns")->num,
            static_cast<double>(snapshot.span_stats[0].total_ns));
  EXPECT_EQ(doc.get("call_tree")->members.size(),
            snapshot.path_stats.size());
  EXPECT_TRUE(doc.get("resource")->get("sampled") != nullptr);
  EXPECT_EQ(doc.get("spans_dropped")->num, 0.0);
}

TEST_F(TelemetryTest, TraceEventsRoundTrip) {
  Registry::global().record_span({"alpha", "alpha", 1000, 250, 0, 0});
  Registry::global().record_span(
      {"beta.gamma", "alpha/beta.gamma", 1250, 1, 1, 2});
  const Snapshot snapshot = Registry::global().snapshot();

  StringSink sink;
  write_trace_events(sink, snapshot);
  const json::Value doc = json::parse(sink.str());

  // Times are microseconds after base_ns, the earliest span's start.
  EXPECT_EQ(doc.get("base_ns")->num, 1000.0);
  const json::Value* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  const json::Value& alpha = events->items[0];
  EXPECT_EQ(alpha.get("name")->str, "alpha");
  EXPECT_EQ(alpha.get("ph")->str, "X");
  EXPECT_DOUBLE_EQ(alpha.get("ts")->num, 0.0);
  EXPECT_DOUBLE_EQ(alpha.get("dur")->num, 0.25);
  EXPECT_EQ(alpha.get("tid")->num, 0.0);
  EXPECT_EQ(alpha.get("args")->get("depth")->num, 0.0);
  EXPECT_EQ(alpha.get("args")->get("path")->str, "alpha");
  const json::Value& beta = events->items[1];
  EXPECT_EQ(beta.get("name")->str, "beta.gamma");
  EXPECT_EQ(beta.get("ph")->str, "X");
  EXPECT_DOUBLE_EQ(beta.get("ts")->num, 0.25);
  EXPECT_DOUBLE_EQ(beta.get("dur")->num, 0.001);
  EXPECT_EQ(beta.get("tid")->num, 1.0);
  EXPECT_EQ(beta.get("args")->get("depth")->num, 2.0);
  EXPECT_EQ(beta.get("args")->get("path")->str, "alpha/beta.gamma");
}

TEST_F(TelemetryTest, MacrosHonourCompileAndRuntimeSwitches) {
  VN2_COUNT("test.macro");
  VN2_COUNT_N("test.macro", 2);
  { VN2_SPAN("test.macro_span"); }
  Snapshot snapshot = Registry::global().snapshot();
  if (kCompiledIn) {
    EXPECT_EQ(snapshot.counter("test.macro"), 3u);
    ASSERT_EQ(snapshot.span_stats.size(), 1u);
    EXPECT_EQ(snapshot.span_stats[0].name, "test.macro_span");
  } else {
    // Compiled out: macros are no-ops and record nothing.
    EXPECT_EQ(snapshot.counter("test.macro"), 0u);
    EXPECT_TRUE(snapshot.span_stats.empty());
    EXPECT_EQ(VN2_CLOCK_NOW(), 0u);
  }

  // Runtime pause: nothing records while collecting is off.
  Registry::global().reset();
  set_collecting(false);
  VN2_COUNT("test.macro");
  { VN2_SPAN("test.macro_span"); }
  EXPECT_EQ(VN2_CLOCK_NOW(), 0u);
  snapshot = Registry::global().snapshot();
  EXPECT_EQ(snapshot.counter("test.macro"), 0u);
  EXPECT_TRUE(snapshot.span_stats.empty());
  set_collecting(true);
}

// The acceptance check: a real (small) pipeline run leaves nonzero
// counters in every instrumented family — simulator events, NMF
// iterations, NNLS solves, and parallel_for tasks.
TEST_F(TelemetryTest, PipelineRunPopulatesEveryCounterFamily) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";

  scenario::ScenarioBundle bundle = scenario::tiny(9, 600.0, 7);
  const wsn::SimulationResult result = bundle.make_simulator().run();
  const trace::Trace log = trace::build_trace(result);
  (void)trace::extract_states(log);

  const vn2::testing::SyntheticTrace synthetic = vn2::testing::make_synthetic(
      vn2::testing::standard_causes(), 400, 11);
  core::TrainingOptions options;
  options.rank = 6;
  const core::TrainingReport report = core::train(synthetic.states, options);
  (void)core::diagnose_batch(report.model, synthetic.states);

  const Snapshot snapshot = Registry::global().snapshot();
  EXPECT_GT(snapshot.counter("sim.events"), 0u);
  EXPECT_GT(snapshot.counter("sim.beacons"), 0u);
  EXPECT_GT(snapshot.counter("trace.csv.rows") +
                snapshot.counter("trace.states.extracted"),
            0u);
  EXPECT_GT(snapshot.counter("nmf.factorizations"), 0u);
  EXPECT_GT(snapshot.counter("nmf.iterations"), 0u);
  EXPECT_GT(snapshot.counter("nnls.solves"), 0u);
  EXPECT_GT(snapshot.counter("parallel.tasks"), 0u);
  EXPECT_GT(snapshot.counter("vn2.states.diagnosed"), 0u);
}

// ---------------------------------------------------------------------------
// Process resource visibility (resource.hpp).

TEST_F(TelemetryTest, ResourceSamplerReportsPlausibleValues) {
  const ResourceUsage usage = sample_resources();
#if defined(__linux__)
  ASSERT_TRUE(usage.sampled);
  EXPECT_GT(usage.peak_rss_bytes, 0u);
  EXPECT_GT(usage.current_rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.current_rss_bytes);
  // A gtest process has certainly burned some CPU by now.
  EXPECT_GT(usage.cpu_total_ns(), 0u);
#else
  // Portable fallback: may or may not be available, but must not lie.
  if (!usage.sampled) {
    EXPECT_EQ(usage.peak_rss_bytes, 0u);
    EXPECT_EQ(usage.current_rss_bytes, 0u);
  }
#endif
}

TEST_F(TelemetryTest, ResourceSamplerPeakIsMonotonic) {
  const ResourceUsage before = sample_resources();
  // Touch a real chunk of memory so RSS has a reason to move; the peak
  // must never decrease across samples regardless.
  std::vector<double> ballast(4 << 20, 1.5);
  double sum = 0;
  for (double v : ballast) sum += v;
  const ResourceUsage after = sample_resources();
  EXPECT_GT(sum, 0.0);
  if (before.sampled && after.sampled) {
    EXPECT_GE(after.peak_rss_bytes, before.peak_rss_bytes);
  }
}

TEST_F(TelemetryTest, ThreadCpuClockAdvancesWithWork) {
  const std::uint64_t before = thread_cpu_ns();
  volatile double sink_value = 1.0;
  for (int i = 0; i < 2000000; ++i) sink_value = sink_value * 1.0000001 + 0.1;
  const std::uint64_t after = thread_cpu_ns();
  if (before == 0 && after == 0) GTEST_SKIP() << "no thread CPU clock here";
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0u);
}

TEST_F(TelemetryTest, SpansSplitWallAndCpuTime) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  {
    ScopedSpan span("test.cpu_split");
    volatile double sink_value = 1.0;
    for (int i = 0; i < 2000000; ++i)
      sink_value = sink_value * 1.0000001 + 0.1;
  }
  const Snapshot snapshot = Registry::global().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 1u);
  ASSERT_EQ(snapshot.span_stats.size(), 1u);
  EXPECT_GT(snapshot.spans[0].duration_ns, 0u);
  // A pure compute loop spends nearly all wall time on-CPU; allow a
  // generous scheduler margin but require the split to be populated.
  if (thread_cpu_ns() > 0) {
    EXPECT_GT(snapshot.spans[0].cpu_ns, 0u);
    EXPECT_EQ(snapshot.span_stats[0].total_cpu_ns, snapshot.spans[0].cpu_ns);
  }
}

TEST_F(TelemetryTest, SnapshotEmbedsResourceUsage) {
  const Snapshot snapshot = Registry::global().snapshot();
#if defined(__linux__)
  EXPECT_TRUE(snapshot.resource.sampled);
  EXPECT_GT(snapshot.resource.peak_rss_bytes, 0u);
#else
  (void)snapshot;
#endif
}

// ---------------------------------------------------------------------------
// Allocation counters on the NMF/NNLS workspace seams.

TEST_F(TelemetryTest, NmfWorkspaceIsAllocationFreeOnceWarm) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const linalg::Matrix e = linalg::random_uniform_matrix(24, 16, 3);
  linalg::Matrix w = linalg::random_uniform_matrix(24, 4, 5);
  linalg::Matrix psi = linalg::random_uniform_matrix(4, 16, 9);
  nmf::Workspace workspace;
  nmf::multiplicative_update(e, w, psi, workspace);
  const Snapshot warm = Registry::global().snapshot();
  EXPECT_GT(warm.counter("nmf.workspace.reallocs"), 0u);
  EXPECT_GT(warm.counter("nmf.workspace.alloc_bytes"), 0u);
  for (int sweep = 0; sweep < 5; ++sweep)
    nmf::multiplicative_update(e, w, psi, workspace);
  const Snapshot after = Registry::global().snapshot();
  // Same shapes, same workspace: the hot loop allocates nothing more.
  EXPECT_EQ(after.counter("nmf.workspace.reallocs"),
            warm.counter("nmf.workspace.reallocs"));
  EXPECT_EQ(after.counter("nmf.workspace.alloc_bytes"),
            warm.counter("nmf.workspace.alloc_bytes"));
}

TEST_F(TelemetryTest, NnlsWarmSolvesAllocateLessAndAtConstantRate) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const linalg::NnlsSystem system(linalg::random_uniform_matrix(12, 6, 21));
  linalg::NnlsWorkspace workspace;
  (void)linalg::nnls(system, linalg::Vector(12, 1.0), {}, workspace);
  const Snapshot cold = Registry::global().snapshot();
  EXPECT_GT(cold.counter("nnls.workspace.reallocs"), 0u);
  EXPECT_GT(cold.counter("nnls.workspace.alloc_bytes"), 0u);
  // A warm solve reallocates nothing, whatever its pivot count.
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    (void)linalg::nnls(system,
                       linalg::random_uniform_vector(12, seed, -1.0, 1.0), {},
                       workspace);
  const Snapshot warm = Registry::global().snapshot();
  EXPECT_GT(warm.counter("nnls.pivots"), cold.counter("nnls.pivots"));
  EXPECT_EQ(warm.counter("nnls.workspace.reallocs"),
            cold.counter("nnls.workspace.reallocs"));
  EXPECT_EQ(warm.counter("nnls.workspace.alloc_bytes"),
            cold.counter("nnls.workspace.alloc_bytes"));

  // Batch inference sizes one workspace per chunk slot, so two batches of
  // the same size reallocate equally even when their states need very
  // different pivot counts: the mean state encodes to 0 and needs none.
  const vn2::testing::SyntheticTrace synthetic = vn2::testing::make_synthetic(
      vn2::testing::standard_causes(), 150, 17);
  core::TrainingOptions options;
  options.rank = 5;
  const core::TrainingReport report = core::train(synthetic.states, options);
  linalg::Matrix mean_states(synthetic.states.rows(), metrics::kMetricCount);
  for (std::size_t i = 0; i < mean_states.rows(); ++i)
    for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
      mean_states(i, m) = report.model.encoder().metric_mean(m);
  auto counts_for = [&](const linalg::Matrix& states) {
    Registry::global().reset();
    (void)core::diagnose_batch(report.model, states);
    const Snapshot snapshot = Registry::global().snapshot();
    return std::pair{snapshot.counter("nnls.workspace.reallocs"),
                     snapshot.counter("nnls.pivots")};
  };
  const auto [busy_reallocs, busy_pivots] = counts_for(synthetic.states);
  const auto [quiet_reallocs, quiet_pivots] = counts_for(mean_states);
  EXPECT_GT(busy_pivots, 0u);
  EXPECT_EQ(quiet_pivots, 0u);
  EXPECT_GT(busy_reallocs, 0u);
  EXPECT_EQ(busy_reallocs, quiet_reallocs);
}

TEST_F(TelemetryTest, BatchInferenceAllocationsAreDeterministicAndBounded) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  const vn2::testing::SyntheticTrace synthetic = vn2::testing::make_synthetic(
      vn2::testing::standard_causes(), 200, 13);
  core::TrainingOptions options;
  options.rank = 5;
  const core::TrainingReport report = core::train(synthetic.states, options);

  auto reallocs_with = [&](std::size_t threads) {
    core::set_num_threads(threads);
    Registry::global().reset();
    (void)core::diagnose_batch(report.model, synthetic.states);
    const std::uint64_t count =
        Registry::global().snapshot().counter("nnls.workspace.reallocs");
    core::set_num_threads(0);
    return count;
  };
  const std::uint64_t serial = reallocs_with(1);
  EXPECT_GT(serial, 0u);
  // Single-threaded batch inference allocates identically run to run —
  // the counter is a stable observable the bench records can gate on.
  EXPECT_EQ(reallocs_with(1), serial);
  // Per-slot workspaces mean more threads only add per-slot warmups, a
  // cost independent of the state count; the per-solve gram/rhs churn
  // (the dominant term) is the same either way.
  const std::uint64_t parallel = reallocs_with(8);
  EXPECT_GE(parallel, serial);
  EXPECT_LE(parallel, serial * 2);
}

// ---------------------------------------------------------------------------
// ResourceSampler: the time-series side of resource telemetry. These run
// in the TSan CI job, so the start/stop/read interleavings are also a
// data-race check on the sampler's locking.

/// Spins until the sampler has taken at least `want` samples (bounded so
/// a platform without /proc cannot hang the test).
void wait_for_samples(const ResourceSampler& sampler, std::uint64_t want) {
  for (int spin = 0; spin < 2000 && sampler.total_samples() < want; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST_F(TelemetryTest, SamplerRejectsZeroIntervalOrCapacity) {
  SamplerOptions zero_interval;
  zero_interval.interval_ms = 0;
  EXPECT_THROW(ResourceSampler{zero_interval}, std::invalid_argument);
  SamplerOptions zero_capacity;
  zero_capacity.capacity = 0;
  EXPECT_THROW(ResourceSampler{zero_capacity}, std::invalid_argument);
}

TEST_F(TelemetryTest, SamplerCapturesOrderedSeries) {
  SamplerOptions options;
  options.interval_ms = 1;
  ResourceSampler sampler(options);
  sampler.start();
  if (!kCompiledIn) {
    // Kill-switch builds: start() is a no-op, the series stays empty.
    EXPECT_FALSE(sampler.running());
    EXPECT_TRUE(sampler.series().empty());
    return;
  }
  EXPECT_TRUE(sampler.running());
  wait_for_samples(sampler, 3);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_GE(series.size(), 3u);  // Immediate + ticks + closing sample.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
}

TEST_F(TelemetryTest, SamplerRingWrapsKeepingNewestOldestFirst) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  options.capacity = 4;
  ResourceSampler sampler(options);
  sampler.start();
  wait_for_samples(sampler, 7);
  sampler.stop();
  EXPECT_GT(sampler.total_samples(), 4u);
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_EQ(series.size(), 4u);  // Bounded by capacity after the wrap.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
}

TEST_F(TelemetryTest, SamplerStartStopAreIdempotentAndRestartable) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  ResourceSampler sampler(options);
  sampler.stop();  // Stop before ever starting: no-op.
  EXPECT_EQ(sampler.total_samples(), 0u);
  sampler.start();
  sampler.start();  // Second start while running: no-op, no second thread.
  wait_for_samples(sampler, 2);
  sampler.stop();
  sampler.stop();  // Second stop: no-op.
  const std::uint64_t first_window = sampler.total_samples();
  EXPECT_GE(first_window, 2u);
  // Restarting appends into the same ring (how a bench brackets reps).
  sampler.start();
  wait_for_samples(sampler, first_window + 2);
  sampler.stop();
  EXPECT_GT(sampler.total_samples(), first_window);
  // reset() clears the window but keeps the sampler usable.
  sampler.reset();
  EXPECT_EQ(sampler.total_samples(), 0u);
  EXPECT_TRUE(sampler.series().empty());
}

TEST_F(TelemetryTest, SamplerTracksRegistryCounters) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  Counter& counter = Registry::global().counter("test.sampled_counter");
  SamplerOptions options;
  options.interval_ms = 1;
  options.counters = {"test.sampled_counter"};
  ResourceSampler sampler(options);
  sampler.start();
  counter.add(41);
  wait_for_samples(sampler, 3);
  counter.add(1);
  sampler.stop();
  const std::vector<ResourceSample> series = sampler.series();
  ASSERT_FALSE(series.empty());
  ASSERT_EQ(series.back().counters.size(), 1u);
  EXPECT_EQ(series.back().counters[0], 42u);  // Closing sample sees both.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GE(series[i].counters[0], series[i - 1].counters[0]);
}

TEST_F(TelemetryTest, SamplerPeakSurvivesRingOverwrites) {
  if (!kCompiledIn) GTEST_SKIP() << "built with VN2_TELEMETRY=OFF";
  SamplerOptions options;
  options.interval_ms = 1;
  options.capacity = 2;
  ResourceSampler sampler(options);
  sampler.start();
  wait_for_samples(sampler, 5);
  sampler.stop();
  // Peak tracks every sample ever taken, not just the two retained.
  std::uint64_t retained_max = 0;
  for (const ResourceSample& s : sampler.series())
    retained_max = std::max(retained_max, s.current_rss_bytes);
  EXPECT_GE(sampler.peak_rss_bytes(), retained_max);
}

}  // namespace
}  // namespace vn2::telemetry
