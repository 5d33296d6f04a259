#include "benchstat/record.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace vn2::benchstat {

namespace {

using telemetry::json::number;
using telemetry::json::quoted;
using telemetry::json::Value;

// ---------------------------------------------------------------------------
// Value → struct extraction, with required/optional field accessors.

[[noreturn]] void missing(std::string_view context, std::string_view key) {
  throw std::runtime_error("benchstat: " + std::string(context) +
                           ": missing field '" + std::string(key) + "'");
}

const Value& require(const Value& object, std::string_view context,
                     std::string_view key) {
  const Value* v = object.get(key);
  if (v == nullptr) missing(context, key);
  return *v;
}

std::string opt_string(const Value& object, std::string_view key,
                       std::string fallback = "") {
  const Value* v = object.get(key);
  return v != nullptr && v->kind == Value::Kind::kString ? v->str
                                                         : std::move(fallback);
}

double opt_number(const Value& object, std::string_view key,
                  double fallback = 0.0) {
  const Value* v = object.get(key);
  return v != nullptr && v->kind == Value::Kind::kNumber ? v->num : fallback;
}

std::uint64_t opt_u64(const Value& object, std::string_view key,
                      std::uint64_t fallback = 0) {
  return static_cast<std::uint64_t>(
      opt_number(object, key, static_cast<double>(fallback)));
}

bool opt_bool(const Value& object, std::string_view key, bool fallback) {
  const Value* v = object.get(key);
  return v != nullptr && v->kind == Value::Kind::kBool ? v->boolean : fallback;
}

Metric metric_from_value(const Value& v) {
  Metric metric;
  metric.name = require(v, "metric", "name").str;
  metric.unit = opt_string(v, "unit", "s");
  metric.lower_is_better = opt_bool(v, "lower_is_better", true);
  metric.gated = opt_bool(v, "gated", false);
  if (const Value* samples = v.get("samples"); samples != nullptr) {
    for (const Value& s : samples->items) metric.samples.push_back(s.num);
  }
  if (v.get("median") != nullptr) {
    metric.stats.median = opt_number(v, "median");
    metric.stats.min = opt_number(v, "min");
    metric.stats.max = opt_number(v, "max");
    metric.stats.q1 = opt_number(v, "q1", metric.stats.median);
    metric.stats.q3 = opt_number(v, "q3", metric.stats.median);
  } else if (!metric.samples.empty()) {
    metric.finalize();
  } else {
    throw std::runtime_error("benchstat: metric '" + metric.name +
                             "' has neither samples nor derived stats");
  }
  return metric;
}

Record record_from_value(const Value& v) {
  if (v.kind != Value::Kind::kObject)
    throw std::runtime_error("benchstat: record is not a JSON object");
  Record record;
  record.schema_version = static_cast<std::int64_t>(
      require(v, "record", "schema_version").num);
  if (record.schema_version > kSchemaVersion)
    throw std::runtime_error(
        "benchstat: record schema_version " +
        std::to_string(record.schema_version) +
        " is newer than this tool understands (" +
        std::to_string(kSchemaVersion) + ")");
  record.bench = require(v, "record", "bench").str;
  record.workload = opt_string(v, "workload");
  if (const Value* prov = v.get("provenance"); prov != nullptr) {
    record.provenance.git_sha = opt_string(*prov, "git_sha", "unknown");
    record.provenance.timestamp = opt_string(*prov, "timestamp");
    record.provenance.bench_days = opt_number(*prov, "bench_days");
    record.provenance.reps = opt_u64(*prov, "reps");
  }
  if (const Value* env = v.get("environment"); env != nullptr) {
    record.environment.cpu_features = opt_string(*env, "cpu_features");
    record.environment.hardware_concurrency =
        opt_u64(*env, "hardware_concurrency");
    record.environment.threads = opt_u64(*env, "threads");
    record.environment.telemetry_compiled =
        opt_bool(*env, "telemetry_compiled", true);
  }
  if (const Value* scale = v.get("scale"); scale != nullptr) {
    for (const auto& [name, value] : scale->members)
      record.scale.emplace_back(name, value.num);
  }
  if (const Value* cases = v.get("cases"); cases != nullptr) {
    for (const Value& c : cases->items) {
      Case parsed;
      parsed.name = require(c, "case", "name").str;
      if (const Value* metrics = c.get("metrics"); metrics != nullptr)
        for (const Value& m : metrics->items)
          parsed.metrics.push_back(metric_from_value(m));
      // Optional: cases written before per-case sampling existed parse
      // with resources.sampled == false.
      if (const Value* res = c.get("resources"); res != nullptr) {
        parsed.resources.sampled = opt_bool(*res, "sampled", false);
        parsed.resources.peak_rss_bytes = opt_u64(*res, "peak_rss_bytes");
        parsed.resources.interval_ms = opt_u64(*res, "interval_ms");
        if (const Value* series = res->get("rss_series"); series != nullptr)
          for (const Value& p : series->items)
            parsed.resources.rss_series.push_back(
                RssPoint{opt_u64(p, "offset_ms"), opt_u64(p, "bytes")});
      }
      record.cases.push_back(std::move(parsed));
    }
  }
  if (const Value* checks = v.get("checks"); checks != nullptr) {
    for (const Value& c : checks->items)
      record.checks.push_back(Check{require(c, "check", "name").str,
                                    opt_bool(c, "pass", false)});
  }
  if (const Value* res = v.get("resources"); res != nullptr) {
    record.resources.peak_rss_bytes = opt_u64(*res, "peak_rss_bytes");
    record.resources.current_rss_bytes = opt_u64(*res, "current_rss_bytes");
    record.resources.cpu_user_ns = opt_u64(*res, "cpu_user_ns");
    record.resources.cpu_system_ns = opt_u64(*res, "cpu_system_ns");
    record.resources.alloc_count = opt_u64(*res, "alloc_count");
    record.resources.alloc_bytes = opt_u64(*res, "alloc_bytes");
  }
  if (const Value* telem = v.get("telemetry"); telem != nullptr)
    record.telemetry_json = telemetry::json::write_compact(*telem);
  return record;
}

void append_metric(std::string& out, const Metric& metric,
                   const char* indent) {
  out += indent;
  out += "{\"name\": " + quoted(metric.name) +
         ", \"unit\": " + quoted(metric.unit) + ",\n";
  out += indent;
  out += " \"lower_is_better\": ";
  out += metric.lower_is_better ? "true" : "false";
  out += ", \"gated\": ";
  out += metric.gated ? "true" : "false";
  out += ",\n";
  out += indent;
  out += " \"samples\": [";
  for (std::size_t i = 0; i < metric.samples.size(); ++i) {
    if (i != 0) out += ", ";
    out += number(metric.samples[i]);
  }
  out += "],\n";
  out += indent;
  out += " \"median\": " + number(metric.stats.median) +
         ", \"min\": " + number(metric.stats.min) +
         ", \"max\": " + number(metric.stats.max) +
         ", \"q1\": " + number(metric.stats.q1) +
         ", \"q3\": " + number(metric.stats.q3) + "}";
}

void append_record(std::string& out, const Record& record,
                   const std::string& base_indent) {
  const std::string i1 = base_indent + "  ";
  const std::string i2 = base_indent + "    ";
  const std::string i3 = base_indent + "      ";
  out += base_indent + "{\n";
  out += i1 + "\"schema_version\": " + std::to_string(record.schema_version) +
         ",\n";
  out += i1 + "\"bench\": " + quoted(record.bench) + ",\n";
  out += i1 + "\"workload\": " + quoted(record.workload) + ",\n";
  out += i1 + "\"provenance\": {\"git_sha\": " +
         quoted(record.provenance.git_sha) +
         ", \"timestamp\": " + quoted(record.provenance.timestamp) +
         ", \"bench_days\": " + number(record.provenance.bench_days) +
         ", \"reps\": " + std::to_string(record.provenance.reps) + "},\n";
  out += i1 + "\"environment\": {\"cpu_features\": " +
         quoted(record.environment.cpu_features) +
         ", \"hardware_concurrency\": " +
         std::to_string(record.environment.hardware_concurrency) +
         ", \"threads\": " + std::to_string(record.environment.threads) +
         ", \"telemetry_compiled\": ";
  out += record.environment.telemetry_compiled ? "true" : "false";
  out += "},\n";
  out += i1 + "\"scale\": {";
  for (std::size_t i = 0; i < record.scale.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(record.scale[i].first) + ": " + number(record.scale[i].second);
  }
  out += "},\n";
  out += i1 + "\"cases\": [";
  for (std::size_t c = 0; c < record.cases.size(); ++c) {
    out += c == 0 ? "\n" : ",\n";
    out += i2 + "{\"name\": " + quoted(record.cases[c].name) +
           ", \"metrics\": [";
    for (std::size_t m = 0; m < record.cases[c].metrics.size(); ++m) {
      out += m == 0 ? "\n" : ",\n";
      append_metric(out, record.cases[c].metrics[m], i3.c_str());
    }
    out += record.cases[c].metrics.empty() ? "]" : "\n" + i2 + "]";
    if (const CaseResources& cr = record.cases[c].resources; cr.sampled) {
      out += ",\n" + i2 +
             " \"resources\": {\"sampled\": true, \"peak_rss_bytes\": " +
             std::to_string(cr.peak_rss_bytes) +
             ", \"interval_ms\": " + std::to_string(cr.interval_ms) +
             ", \"rss_series\": [";
      for (std::size_t p = 0; p < cr.rss_series.size(); ++p) {
        if (p != 0) out += ", ";
        out += "{\"offset_ms\": " + std::to_string(cr.rss_series[p].offset_ms) +
               ", \"bytes\": " + std::to_string(cr.rss_series[p].bytes) + "}";
      }
      out += "]}";
    }
    out += "}";
  }
  out += record.cases.empty() ? "],\n" : "\n" + i1 + "],\n";
  out += i1 + "\"checks\": [";
  for (std::size_t i = 0; i < record.checks.size(); ++i) {
    if (i != 0) out += ", ";
    out += "{\"name\": " + quoted(record.checks[i].name) + ", \"pass\": ";
    out += record.checks[i].pass ? "true" : "false";
    out += "}";
  }
  out += "],\n";
  out += i1 + "\"resources\": {\"peak_rss_bytes\": " +
         std::to_string(record.resources.peak_rss_bytes) +
         ", \"current_rss_bytes\": " +
         std::to_string(record.resources.current_rss_bytes) +
         ", \"cpu_user_ns\": " + std::to_string(record.resources.cpu_user_ns) +
         ", \"cpu_system_ns\": " +
         std::to_string(record.resources.cpu_system_ns) +
         ", \"alloc_count\": " + std::to_string(record.resources.alloc_count) +
         ", \"alloc_bytes\": " + std::to_string(record.resources.alloc_bytes) +
         "}";
  if (!record.telemetry_json.empty()) {
    out += ",\n" + i1 + "\"telemetry\": " + record.telemetry_json;
  }
  out += "\n" + base_indent + "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Sample statistics.

SampleStats summarize(std::vector<double> samples) {
  if (samples.empty())
    throw std::runtime_error("benchstat: cannot summarize zero samples");
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&samples](double p) {
    const double h = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  SampleStats stats;
  stats.min = samples.front();
  stats.max = samples.back();
  stats.q1 = quantile(0.25);
  stats.median = quantile(0.5);
  stats.q3 = quantile(0.75);
  return stats;
}

void Metric::finalize() {
  if (!samples.empty()) stats = summarize(samples);
}

Metric make_metric(std::string name, std::string unit, bool lower_is_better,
                   bool gated, std::vector<double> samples) {
  Metric metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.lower_is_better = lower_is_better;
  metric.gated = gated;
  metric.samples = std::move(samples);
  metric.finalize();
  return metric;
}

const Metric* Case::find_metric(std::string_view metric_name) const {
  for (const Metric& metric : metrics)
    if (metric.name == metric_name) return &metric;
  return nullptr;
}

const Case* Record::find_case(std::string_view case_name) const {
  for (const Case& c : cases)
    if (c.name == case_name) return &c;
  return nullptr;
}

const Record* Baseline::find(std::string_view bench) const {
  for (const Record& record : records)
    if (record.bench == bench) return &record;
  return nullptr;
}

Record* Baseline::find(std::string_view bench) {
  for (Record& record : records)
    if (record.bench == bench) return &record;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialization entry points.

void write_record(telemetry::Sink& sink, const Record& record) {
  std::string out;
  append_record(out, record, "");
  out += "\n";
  sink.write(out);
}

Record read_record(std::string_view text) {
  return record_from_value(telemetry::json::parse(text));
}

void write_baseline(telemetry::Sink& sink, const Baseline& baseline) {
  std::string out = "{\n  \"schema_version\": " +
                    std::to_string(baseline.schema_version) +
                    ",\n  \"records\": [";
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_record(out, baseline.records[i], "    ");
  }
  out += baseline.records.empty() ? "]\n}\n" : "\n  ]\n}\n";
  sink.write(out);
}

Baseline read_baseline(std::string_view text) {
  const Value document = telemetry::json::parse(text);
  if (document.kind != Value::Kind::kObject)
    throw std::runtime_error("benchstat: baseline is not a JSON object");
  Baseline baseline;
  baseline.schema_version = static_cast<std::int64_t>(
      require(document, "baseline", "schema_version").num);
  if (baseline.schema_version > kSchemaVersion)
    throw std::runtime_error("benchstat: baseline schema_version " +
                             std::to_string(baseline.schema_version) +
                             " is newer than this tool understands");
  if (const Value* records = document.get("records"); records != nullptr)
    for (const Value& r : records->items)
      baseline.records.push_back(record_from_value(r));
  return baseline;
}

}  // namespace vn2::benchstat
