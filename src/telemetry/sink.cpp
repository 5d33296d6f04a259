#include "telemetry/sink.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "telemetry/calltree.hpp"
#include "telemetry/json.hpp"

namespace vn2::telemetry {

namespace {

using json::number;
using json::quoted;

std::string micros(std::uint64_t ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

std::string resource_json(const ResourceUsage& usage) {
  std::string out = "{\"sampled\": ";
  out += usage.sampled ? "true" : "false";
  out += ", \"peak_rss_bytes\": " + std::to_string(usage.peak_rss_bytes);
  out += ", \"current_rss_bytes\": " + std::to_string(usage.current_rss_bytes);
  out += ", \"cpu_user_ns\": " + std::to_string(usage.cpu_user_ns);
  out += ", \"cpu_system_ns\": " + std::to_string(usage.cpu_system_ns);
  out += "}";
  return out;
}

}  // namespace

void write_json(Sink& sink, const Snapshot& snapshot) {
  std::string out = "{\n";
  out += "  \"telemetry_compiled\": ";
  out += snapshot.compiled_in ? "true" : "false";
  out += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(snapshot.counters[i].first) + ": " +
           std::to_string(snapshot.counters[i].second);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(snapshot.gauges[i].first) + ": " +
           number(snapshot.gauges[i].second);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(name) + ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) +
           ", \"min\": " + std::to_string(h.min) +
           ", \"max\": " + std::to_string(h.max) +
           ", \"mean\": " + number(h.mean()) + "}";
  }
  out += snapshot.histograms.empty() ? "},\n" : "\n  },\n";
  out += "  \"spans\": {";
  for (std::size_t i = 0; i < snapshot.span_stats.size(); ++i) {
    const SpanStats& s = snapshot.span_stats[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(s.name) +
           ": {\"count\": " + std::to_string(s.count) +
           ", \"total_ns\": " + std::to_string(s.total_ns) +
           ", \"min_ns\": " + std::to_string(s.min_ns) +
           ", \"max_ns\": " + std::to_string(s.max_ns) +
           ", \"total_cpu_ns\": " + std::to_string(s.total_cpu_ns) + "}";
  }
  out += snapshot.span_stats.empty() ? "},\n" : "\n  },\n";
  // The call tree: path-keyed rows in preorder, with exclusive times
  // precomputed so `vn2 profile --diff` never rebuilds the hierarchy to
  // diff it.
  const std::vector<PathProfile> paths =
      flatten(build_call_tree(snapshot.path_stats));
  out += "  \"call_tree\": {";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathProfile& p = paths[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + quoted(p.path) + ": {\"count\": " +
           std::to_string(p.count) +
           ", \"wall_ns\": " + std::to_string(p.wall_ns) +
           ", \"cpu_ns\": " + std::to_string(p.cpu_ns) +
           ", \"excl_wall_ns\": " + std::to_string(p.excl_wall_ns) +
           ", \"excl_cpu_ns\": " + std::to_string(p.excl_cpu_ns) + "}";
  }
  out += paths.empty() ? "},\n" : "\n  },\n";
  out += "  \"resource\": " + resource_json(snapshot.resource) + ",\n";
  if (!snapshot.resource_series.empty()) {
    // Offsets are relative to the first sample; readable and stable
    // across runs, unlike raw monotonic timestamps.
    const std::uint64_t t0 = snapshot.resource_series.front().t_ns;
    out += "  \"resource_series\": [";
    for (std::size_t i = 0; i < snapshot.resource_series.size(); ++i) {
      const ResourceSample& s = snapshot.resource_series[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"t_ms\": " + std::to_string((s.t_ns - t0) / 1000000) +
             ", \"rss_bytes\": " + std::to_string(s.current_rss_bytes) +
             ", \"cpu_ns\": " + std::to_string(s.cpu_total_ns) + "}";
    }
    out += "\n  ],\n";
  }
  out += "  \"spans_dropped\": " + std::to_string(snapshot.spans_dropped) +
         "\n}\n";
  sink.write(out);
}

void write_trace_events(Sink& sink, const Snapshot& snapshot) {
  // Complete events ("ph":"X") with timestamps relative to the earliest
  // span, in microseconds as the format requires; base_ns preserves the
  // absolute origin, so start_ns = base_ns + ts.
  std::uint64_t base = ~std::uint64_t{0};
  for (const SpanRecord& span : snapshot.spans)
    base = std::min(base, span.start_ns);
  if (snapshot.spans.empty()) base = 0;
  std::string out = "{\"base_ns\":" + std::to_string(base) +
                    ",\"traceEvents\":[";
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanRecord& span = snapshot.spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + quoted(span.name) +
           ",\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(span.thread) +
           ",\"ts\":" + micros(span.start_ns - base) +
           ",\"dur\":" + micros(span.duration_ns) +
           ",\"args\":{\"depth\":" + std::to_string(span.depth) +
           ",\"cpu_ns\":" + std::to_string(span.cpu_ns);
    if (!span.path.empty()) out += ",\"path\":" + quoted(span.path);
    out += "}}";
  }
  out += "\n]}\n";
  sink.write(out);
}

}  // namespace vn2::telemetry
