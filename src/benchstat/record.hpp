// vn2::benchstat — the performance observatory's data model.
//
// Every bench in bench/ emits one Record per report: a versioned,
// self-describing JSON document carrying provenance (git SHA, harness
// timestamp, scenario scale), the environment (CPU features, thread
// count), repeated per-case samples with derived median/min/IQR, the
// bit-identity checks the bench ran, and a resource/allocation snapshot.
// `tools/vn2_benchstat` compares such records against a checked-in
// baseline with noise-aware thresholds (gate.hpp).
//
// Layering mirrors src/telemetry: this library never opens files — all
// serialization goes through telemetry::Sink, and file handling lives in
// the tools/bench layer. Records are written and read with the one JSON
// codec, telemetry/json.hpp, which rejects a malformed record with the
// byte offset of its first bad token.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/sink.hpp"

namespace vn2::benchstat {

/// Bump when the record layout changes incompatibly. Readers reject
/// records with a newer major version than they understand.
inline constexpr std::int64_t kSchemaVersion = 1;

/// Order statistics derived from a metric's samples. Quartiles use
/// linear interpolation between closest ranks (type-7, the numpy
/// default), so a single sample yields median == q1 == q3 == min == max.
struct SampleStats {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Computes order statistics over `samples`; throws std::runtime_error
/// when the vector is empty.
[[nodiscard]] SampleStats summarize(std::vector<double> samples);

/// One measured quantity within a case: repeated raw samples plus the
/// derived statistics. `gated == true` marks the metric as subject to
/// the regression gate; informational metrics keep history but never
/// fail a run.
struct Metric {
  std::string name;
  std::string unit = "s";
  bool lower_is_better = true;
  bool gated = false;
  std::vector<double> samples;
  SampleStats stats;

  /// Rederives `stats` from `samples` (no-op when samples is empty, so
  /// hand-written baseline entries carrying only stats stay intact).
  void finalize();
};

/// Convenience constructor: builds a metric and derives its stats.
[[nodiscard]] Metric make_metric(std::string name, std::string unit,
                                 bool lower_is_better, bool gated,
                                 std::vector<double> samples);

/// A named sub-benchmark (e.g. one backend, one thread count).
/// One point of a per-case RSS time series: offset from the case's first
/// sample, in milliseconds, and the resident set at that moment.
struct RssPoint {
  std::uint64_t offset_ms = 0;
  std::uint64_t bytes = 0;
};

/// Per-case resource profile captured by bracketing the case's timed
/// sections with a telemetry::ResourceSampler. Optional: records written
/// before this field existed (or on platforms without /proc) parse with
/// sampled == false.
struct CaseResources {
  bool sampled = false;
  std::uint64_t peak_rss_bytes = 0;  ///< Max RSS seen while the case ran.
  std::uint64_t interval_ms = 0;     ///< Sampler tick; 0 = unknown.
  std::vector<RssPoint> rss_series;  ///< Downsampled, oldest first.
};

struct Case {
  std::string name;
  std::vector<Metric> metrics;
  CaseResources resources;

  Case() = default;
  // Keeps the emitters' two-element brace initializers valid now that
  // per-case resources exist (and optional there, since most cases carry
  // only metrics).
  Case(std::string case_name, std::vector<Metric> case_metrics,
       CaseResources case_resources = {})
      : name(std::move(case_name)),
        metrics(std::move(case_metrics)),
        resources(std::move(case_resources)) {}

  [[nodiscard]] const Metric* find_metric(std::string_view metric_name) const;
};

/// A pass/fail invariant the bench verified (bit-identity, parity
/// tolerance). A failed check fails the gate regardless of timings.
struct Check {
  std::string name;
  bool pass = true;
};

/// Where and when the record was produced.
struct Provenance {
  std::string git_sha = "unknown";  ///< From the harness (VN2_GIT_SHA).
  std::string timestamp;            ///< From the harness; empty = unset.
  double bench_days = 0.0;          ///< VN2_BENCH_DAYS scale; 0 = n/a.
  std::uint64_t reps = 0;           ///< Repetitions per timed section.
};

/// The machine the record was produced on.
struct Environment {
  std::string cpu_features;
  std::uint64_t hardware_concurrency = 0;
  std::uint64_t threads = 0;  ///< Worker threads the bench used.
  bool telemetry_compiled = true;
};

/// Process resource + allocation snapshot taken at record-write time.
struct Resources {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t current_rss_bytes = 0;
  std::uint64_t cpu_user_ns = 0;
  std::uint64_t cpu_system_ns = 0;
  std::uint64_t alloc_count = 0;  ///< Workspace reallocations observed.
  std::uint64_t alloc_bytes = 0;  ///< Bytes those reallocations requested.
};

/// One bench run: the unit both the emitter and the comparator speak.
struct Record {
  std::int64_t schema_version = kSchemaVersion;
  std::string bench;     ///< Stable bench id, e.g. "nmf_rank_sweep".
  std::string workload;  ///< Human-readable scenario description.
  Provenance provenance;
  Environment environment;
  /// Scenario scale knobs as (name, value) pairs: rows, cols, ranks...
  std::vector<std::pair<std::string, double>> scale;
  std::vector<Case> cases;
  std::vector<Check> checks;
  Resources resources;
  /// Raw embedded telemetry snapshot JSON (object text, "" = none).
  /// Opaque to the comparator; kept for humans and future tooling.
  std::string telemetry_json;

  [[nodiscard]] const Case* find_case(std::string_view case_name) const;
};

/// A collection of records keyed by bench id — the on-disk shape of
/// `bench_baseline.json`.
struct Baseline {
  std::int64_t schema_version = kSchemaVersion;
  std::vector<Record> records;

  [[nodiscard]] const Record* find(std::string_view bench) const;
  [[nodiscard]] Record* find(std::string_view bench);
};

// ---------------------------------------------------------------------------
// Serialization. Writers emit pretty-printed JSON; readers throw
// std::runtime_error with a position-annotated message on malformed or
// version-incompatible input.

void write_record(telemetry::Sink& sink, const Record& record);
[[nodiscard]] Record read_record(std::string_view text);

void write_baseline(telemetry::Sink& sink, const Baseline& baseline);
[[nodiscard]] Baseline read_baseline(std::string_view text);

}  // namespace vn2::benchstat
