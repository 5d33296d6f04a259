// Serialization for telemetry snapshots. The library never opens files:
// every writer emits through the Sink interface, and the CLI/bench layer
// owns the actual file handles (vn2-lint io-in-library stays happy).
//
// Two formats, both written with the JSON codec in json.hpp:
//  * write_json         — one pretty-printed JSON document (the snapshot
//                         format behind `vn2 ... --telemetry out.json` and
//                         `vn2 profile --json`); read_call_tree_json
//                         (calltree.hpp) reads its call tree back.
//  * write_trace_events — chrome://tracing / Perfetto "trace_event"
//                         JSON with one complete ("ph":"X") event per raw
//                         span (`--telemetry-trace`).
#pragma once

#include <string>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace vn2::telemetry {

/// Byte-stream target injected into the serializers.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(std::string_view chunk) = 0;
};

/// Sink that accumulates into a string (tests, JSON embedding in bench).
class StringSink : public Sink {
 public:
  void write(std::string_view chunk) override { out_.append(chunk); }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

void write_json(Sink& sink, const Snapshot& snapshot);
void write_trace_events(Sink& sink, const Snapshot& snapshot);

}  // namespace vn2::telemetry
